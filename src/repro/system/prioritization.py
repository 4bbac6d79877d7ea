"""Work prioritization (Section 3.2, "Work Prioritization").

"Instead of processing each camera's images at the same frequency, the
AV system could process these images at rates proportional to the
estimated rates." A fixed total frame budget is redistributed across
cameras proportionally to Zhuyi's per-camera estimates, subject to each
camera's estimate being a hard floor (safety first, comfort second).

"The inverse of the per-actor tolerable latency estimate is proportional
to the actor's importance" — :func:`rank_actors` orders scene objects by
that importance for object-level work truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.core.evaluator import EvaluationTick
from repro.core.latency import UNAVOIDABLE_LATENCY
from repro.errors import ConfigurationError


def allocate_frame_budget(
    estimates: Mapping[str, float],
    total_budget: float,
    min_fpr: float = 1.0,
    max_fpr: float = 30.0,
) -> dict[str, float]:
    """Split a total frames/second budget across cameras.

    Every camera first receives its Zhuyi estimate (clamped to the
    camera's operating range — safety floor); remaining budget is then
    distributed proportionally to the estimates (importance-weighted
    comfort). When the budget cannot cover the floors, cameras are
    scaled down proportionally — the caller should treat that as an
    alarm condition.

    Returns a per-camera allocation summing to ``total_budget`` (unless
    the per-camera cap binds first).
    """
    if total_budget <= 0.0:
        raise ConfigurationError("frame budget must be positive")
    if not estimates:
        raise ConfigurationError("no cameras to allocate to")
    if min_fpr < 0.0 or max_fpr <= min_fpr:
        raise ConfigurationError("need 0 <= min_fpr < max_fpr")

    floors = {
        camera: min(max(estimate, min_fpr), max_fpr)
        for camera, estimate in estimates.items()
    }
    floor_total = sum(floors.values())

    if floor_total >= total_budget:
        # Degraded mode: scale floors to fit the budget.
        scale = total_budget / floor_total
        return {camera: floor * scale for camera, floor in floors.items()}

    # Water-filling: hand the surplus out proportionally to demand,
    # re-distributing whatever spills over a camera's cap to the rest.
    allocation = dict(floors)
    surplus = total_budget - floor_total
    # A list in the estimates' order, not a set: the float sums below
    # must not follow string-hash order (PYTHONHASHSEED).
    active = [
        camera for camera, value in allocation.items() if value < max_fpr
    ]
    while surplus > 1e-9 and active:
        weight_total = sum(floors[camera] for camera in active)
        spilled = 0.0
        for camera in active:
            share = surplus * floors[camera] / weight_total
            headroom = max_fpr - allocation[camera]
            granted = min(share, headroom)
            allocation[camera] += granted
            spilled += share - granted
        active = [
            camera for camera in active
            if allocation[camera] < max_fpr - 1e-12
        ]
        surplus = spilled
    return allocation


def rank_actors(
    actor_latencies: Mapping[Hashable, float | None],
) -> list[Hashable]:
    """Actors ordered from most to least important.

    Importance is the inverse tolerable latency; unavoidable verdicts
    (``None``) rank first.
    """
    def importance(item: tuple[Hashable, float | None]) -> float:
        latency = item[1]
        if latency is None or latency <= UNAVOIDABLE_LATENCY:
            return float("inf")
        return 1.0 / latency

    ordered = sorted(actor_latencies.items(), key=importance, reverse=True)
    return [actor_id for actor_id, _ in ordered]


@dataclass
class WorkPrioritizer:
    """Applies budget reallocation from estimation ticks.

    Attributes:
        total_budget: frames/second available across the managed cameras
            (e.g. 3 cameras x 30 FPR = 90).
        cameras: cameras under management (others left untouched).
        min_fpr / max_fpr: per-camera operating range.
    """

    total_budget: float
    cameras: Sequence[str]
    min_fpr: float = 1.0
    max_fpr: float = 30.0

    def __post_init__(self) -> None:
        if not self.cameras:
            raise ConfigurationError("prioritizer needs at least one camera")
        if self.total_budget <= 0.0:
            raise ConfigurationError("frame budget must be positive")

    def allocation_for(self, tick: EvaluationTick) -> dict[str, float]:
        """Per-camera rates for one estimation tick."""
        estimates = {
            camera: tick.fpr(camera)
            for camera in self.cameras
            if camera in tick.camera_estimates
        }
        if not estimates:
            raise ConfigurationError(
                f"tick carries no estimates for cameras {list(self.cameras)}"
            )
        return allocate_frame_budget(
            estimates,
            total_budget=self.total_budget,
            min_fpr=self.min_fpr,
            max_fpr=self.max_fpr,
        )
