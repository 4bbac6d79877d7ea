"""Per-frame actor detection for one camera.

Detection here is geometric: an actor is detected when its centre lies in
the camera's FOV sector, is not occluded by another actor (optional — the
paper lists occlusion handling as future work, so it defaults off), and
survives a configurable miss probability. Measured position carries
Gaussian noise; downstream velocity estimation differentiates positions,
so noise and frame rate interact exactly as in a real stack.

The geometric stages run as array programs: the FOV gate goes through the
same :meth:`repro.geometry.fov.AngularSector.contains_local_batch` kernel
the trace-level visibility tables use, and the occlusion test solves the
slab intersection for every sight ray against every potential blocker
as one (targets x blockers) array program (:func:`occlusion_mask`). The
random stages (miss sampling, position noise) draw through the
counter-based generator of :mod:`repro.core.rng`: every draw is a pure
function of ``(seed, stream, camera, capture time, actor id)``, so a
frame's verdicts do not depend on how many frames any camera captured
before it. A frame's x and y noise come from one
:func:`repro.core.rng.counter_normal` call over a stacked stream axis —
each row bit-identical to a separate per-stream call — and
re-simulating from any point of a run reproduces them bit for bit.
(Traces recorded before this counter-keyed scheme consumed a stateful
``np.random.Generator`` in iteration order and drew different streams;
see docs/TESTING.md's RNG determinism contract for the deliberate
break.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.rng import (
    STREAM_MISS,
    STREAM_NOISE_X,
    STREAM_NOISE_Y,
    counter_normal,
    counter_uniform,
    stable_key,
    time_key,
)
from repro.dynamics.state import VehicleSpec, VehicleState
from repro.errors import ConfigurationError
from repro.geometry.boxes import PARALLEL_EPS
from repro.geometry.transforms import Frame2
from repro.geometry.vec import Vec2
from repro.perception.sensor import Camera

#: The sight ray is shortened by this much at the target end so the
#: target's own footprint never "occludes" itself (metres).
_TARGET_CLEARANCE = 2.8

#: The x and y position-noise streams as a (2, 1) column, so one
#: broadcast draw yields both rows.
_NOISE_STREAMS = np.array(
    [[STREAM_NOISE_X], [STREAM_NOISE_Y]], dtype=np.uint64
)


@dataclass(frozen=True)
class Detection:
    """One detected actor in one camera frame."""

    actor_id: Hashable
    camera: str
    time: float
    position: Vec2
    true_speed: float
    true_heading: float


def occlusion_mask(
    eye: Vec2,
    targets: Sequence[tuple[int, Vec2]],
    actors: Sequence[tuple[VehicleState, VehicleSpec]],
) -> np.ndarray:
    """Which targets' sight rays are blocked by another actor's footprint.

    The vectorized counterpart of looping
    :func:`repro.geometry.boxes.segment_intersects_box` over blockers:
    every target's (clearance-shortened) sight ray is tested against
    every actor's oriented box with the slab method, as one (targets x
    blockers) array program. The slab arithmetic mirrors the scalar
    test operation for operation, so box verdicts on a given ray are
    identical; the ray shortening itself uses the kernels'
    sqrt-of-squares distance (not ``math.hypot``), which
    clearance-boundary cases can feel at the last ulp.

    Args:
        eye: the camera origin (world frame).
        targets: ``(actor_index, position)`` pairs to test; the index
            identifies the target within ``actors`` so its own footprint
            is excluded.
        actors: every actor's ``(state, spec)`` in a fixed order.

    Returns:
        Boolean array aligned with ``targets``.
    """
    blocker_count = len(actors)
    if blocker_count < 2 or not targets:
        return np.zeros(len(targets), dtype=bool)
    center_x = np.empty(blocker_count)
    center_y = np.empty(blocker_count)
    fwd_x = np.empty(blocker_count)
    fwd_y = np.empty(blocker_count)
    half_len = np.empty(blocker_count)
    half_wid = np.empty(blocker_count)
    for b, (state, spec) in enumerate(actors):
        center_x[b] = state.position.x
        center_y[b] = state.position.y
        # The box axes OrientedBox.axes() derives: forward = unit(heading),
        # left = forward.perp() = (-fwd_y, fwd_x).
        fwd_x[b] = math.cos(state.heading)
        fwd_y[b] = math.sin(state.heading)
        half_len[b] = spec.length / 2.0
        half_wid[b] = spec.width / 2.0
    # The ray start in each blocker's frame is target-independent.
    eye_dx = eye.x - center_x
    eye_dy = eye.y - center_y
    start_x = eye_dx * fwd_x + eye_dy * fwd_y
    start_y = eye_dx * -fwd_y + eye_dy * fwd_x

    # Every sight ray at once: a (targets, 1) column of clearance-
    # shortened ray ends against the (blockers,) row of boxes. A ray too
    # short to clear its target's own footprint occludes nothing; its
    # scale divides by a dummy 1.0 and the row is masked out at the end.
    target_index = np.array([index for index, _ in targets])
    ray_x = np.array([target.x for _, target in targets]) - eye.x
    ray_y = np.array([target.y for _, target in targets]) - eye.y
    distance = np.sqrt(ray_x * ray_x + ray_y * ray_y)
    clear = distance > _TARGET_CLEARANCE
    scale = (distance - _TARGET_CLEARANCE) / np.where(clear, distance, 1.0)
    end_dx = (eye.x + ray_x * scale)[:, None] - center_x
    end_dy = (eye.y + ray_y * scale)[:, None] - center_y
    local_end_x = end_dx * fwd_x + end_dy * fwd_y
    local_end_y = end_dx * -fwd_y + end_dy * fwd_x

    t_min = np.zeros(local_end_x.shape)
    t_max = np.ones(local_end_x.shape)
    parallel_miss = np.zeros(local_end_x.shape, dtype=bool)
    for start, end, half in (
        (start_x, local_end_x, half_len),
        (start_y, local_end_y, half_wid),
    ):
        direction = end - start
        parallel = np.abs(direction) < PARALLEL_EPS
        parallel_miss |= parallel & (np.abs(start) > half)
        safe = np.where(parallel, 1.0, direction)
        t1 = (-half - start) / safe
        t2 = (half - start) / safe
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        t_min = np.where(parallel, t_min, np.maximum(t_min, lo))
        t_max = np.where(parallel, t_max, np.minimum(t_max, hi))
    intersects = ~parallel_miss & (t_min <= t_max)
    intersects[np.arange(len(targets)), target_index] = False
    return clear & intersects.any(axis=1)


@dataclass(frozen=True)
class DetectionModel:
    """Detection characteristics shared by all cameras.

    Attributes:
        position_noise: standard deviation of the measured position (m).
        miss_rate: probability that a visible actor is missed in a frame.
        occlusion: whether actors hidden behind other actors are dropped
            (an extension beyond the paper; defaults off).
    """

    position_noise: float = 0.1
    miss_rate: float = 0.0
    occlusion: bool = False

    def __post_init__(self) -> None:
        if self.position_noise < 0.0:
            raise ConfigurationError("position noise must be non-negative")
        if not 0.0 <= self.miss_rate < 1.0:
            raise ConfigurationError(
                f"miss rate must be in [0, 1), got {self.miss_rate}"
            )

    def detect(
        self,
        camera: Camera,
        ego_state: VehicleState,
        time: float,
        actors: Mapping[Hashable, tuple[VehicleState, VehicleSpec]],
        seed: int,
        in_fov: np.ndarray | None = None,
        camera_frame: Frame2 | None = None,
    ) -> list[Detection]:
        """Detections produced by one camera frame captured at ``time``.

        Miss sampling and position noise are counter-keyed on
        ``(seed, stream, camera name, time, actor id)`` — order-free:
        the frame draws the same values no matter which cameras fired
        before it or where along a run the simulation (re)started.

        ``in_fov`` and ``camera_frame`` optionally supply this frame's
        FOV membership (aligned with ``actors`` iteration order) and the
        camera's world frame — callers that already computed them for
        this exact (camera, ego state, actors) frame pass them to avoid
        recomputing the geometry; omitted, they are computed here.
        """
        if not actors:
            return []
        if camera_frame is None:
            camera_frame = camera.world_frame(ego_state)
        ids = list(actors)
        states = [actors[actor_id][0] for actor_id in ids]
        if in_fov is None:
            xs = np.array([state.position.x for state in states])
            ys = np.array([state.position.y for state in states])
            local_x, local_y = camera_frame.to_local_batch(xs, ys)
            in_fov = camera.fov.contains_local_batch(local_x, local_y)
        visible = np.array(in_fov, dtype=bool)
        if self.occlusion:
            targets = np.flatnonzero(visible)
            blocked = occlusion_mask(
                camera_frame.origin,
                [(index, states[index].position) for index in targets],
                [actors[actor_id] for actor_id in ids],
            )
            visible[targets[blocked]] = False

        keep = np.flatnonzero(visible).tolist()
        if not keep:
            return []

        # One vectorized draw batch per frame, keyed per actor — the
        # values are independent of the candidate set, so geometric
        # pre-filtering cannot shift any survivor's draws. The x and y
        # noise streams stack as a (2, 1) column: each row is bit for
        # bit the separate per-stream call.
        camera_word = stable_key(camera.name)
        time_word = time_key(time)
        if self.miss_rate > 0.0 or self.position_noise > 0.0:
            actor_words = np.array(
                [stable_key(ids[index]) for index in keep], dtype=np.uint64
            )
        missed = [False] * len(keep)
        if self.miss_rate > 0.0:
            missed = (
                counter_uniform(
                    seed, STREAM_MISS, camera_word, time_word, actor_words
                )
                < self.miss_rate
            ).tolist()
        noise = [Vec2(0.0, 0.0)] * len(keep)
        if self.position_noise > 0.0:
            noise_x, noise_y = (
                self.position_noise
                * counter_normal(
                    seed, _NOISE_STREAMS, camera_word, time_word, actor_words
                )
            ).tolist()
            noise = [Vec2(x, y) for x, y in zip(noise_x, noise_y)]

        detections: list[Detection] = []
        for row, index in enumerate(keep):
            if missed[row]:
                continue
            state = states[index]
            detections.append(
                Detection(
                    actor_id=ids[index],
                    camera=camera.name,
                    time=time,
                    position=state.position + noise[row],
                    true_speed=state.speed,
                    true_heading=state.heading,
                )
            )
        return detections
