"""Per-layer span tracer, installed from outside the program.

The benchmark measures the ``repro`` package as shipped: no source file
under ``src/`` knows it is being traced. Instead :class:`Tracer.install`
replaces the callables at each layer boundary with timing wrappers, at
every place they are reached from — the defining class for methods, and
every loaded ``repro.*`` module that bound a module-level function by
name (``from repro.core.evaluator import presample_trace``) — and
:meth:`Tracer.uninstall` puts the originals back.

A span is one call of a wrapped callable. Spans nest through a stack,
so a layer's *self* time is its spans' duration minus the part covered
by wrapped calls made inside them. Spans are aggregated in memory per
``(parent, name)`` edge rather than kept one by one: the per-layer
metrics need only sums, and the edge table keeps the call tree's shape
for the printed report.

A wrapped name that no longer exists (a later refactor deleted or
renamed it) is not an error: its metrics read zero and the name is
listed in :attr:`Tracer.absent`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``module:qualname`` reported as ``span``.

    ``post`` (optional) receives ``(tracer, result)`` after the call
    returns, outside the span's timing, to add work counters.
    """

    span: str
    target: str
    post: Callable | None = None


def _post_sim_run(tracer, result):
    tracer.counts["sim.steps"] += len(result.steps)


def _post_gate(tracer, result):
    tracer.counts["threat.gate_rows"] += int(result.size)
    tracer.counts["threat.gate_passed"] += int(result.sum())


def _post_solve_rows(tracer, result):
    tracer.counts["engine.solve_rows.rows"] += len(result)
    tracer.counts["engine.iterations"] += sum(r.iterations for r in result)


def _post_solve_batch(tracer, result):
    tracer.counts["engine.iterations"] += sum(r.iterations for r in result)


def _post_store_get(tracer, result):
    tracer.counts["store.misses" if result is None else "store.hits"] += 1


def _post_store_put(tracer, result):
    tracer.counts["store.put.bytes"] += sum(
        entry.stat().st_size for entry in Path(result).iterdir()
    )


#: Work counters the hooks' ``post`` callbacks add to; each pass
#: starts them at zero, so a counter no call reached reads 0.
COUNTERS = (
    "sim.steps",
    "threat.gate_rows",
    "threat.gate_passed",
    "engine.solve_rows.rows",
    "engine.iterations",
    "store.hits",
    "store.misses",
    "store.put.bytes",
)


#: The layer boundaries the benchmark traces. Several targets may share
#: one span name (e.g. every predictor class's ``predict``).
HOOKS: tuple[Hook, ...] = (
    # repro.sim — the closed loop itself.
    Hook("sim.run", "repro.sim.simulator:Simulator.run", _post_sim_run),
    # repro.perception
    Hook("perception.step", "repro.perception.pipeline:PerceptionSystem.step"),
    Hook("perception.detect", "repro.perception.detection:DetectionModel.detect"),
    Hook("rig.visible_trace", "repro.perception.sensor:CameraRig.visible_actors_trace"),
    # repro.planning and repro.actors
    Hook("planning.plan", "repro.planning.planner:Planner.plan"),
    Hook("actors.step", "repro.actors.vehicle:Actor.step"),
    # repro.scenarios
    Hook("scenarios.build", "repro.scenarios.catalog:build_scenario"),
    # repro.core.evaluator
    Hook("evaluator.presample", "repro.core.evaluator:presample_trace"),
    Hook("evaluator.evaluate", "repro.core.evaluator:OfflineEvaluator.evaluate"),
    Hook("evaluator.block", "repro.core.evaluator:evaluate_trace_block"),
    # repro.core.threat
    Hook("threat.gate_trace", "repro.core.threat:ThreatAssessor.could_collide_trace", _post_gate),
    Hook("threat.sample_trace", "repro.core.threat:ThreatAssessor.sample_threats_trace"),
    Hook("threat.gate_futures", "repro.core.threat:ThreatAssessor.could_collide_futures", _post_gate),
    Hook("threat.sample_futures", "repro.core.threat:ThreatAssessor.sample_threat_futures"),
    # repro.core.engine
    Hook("engine.trace_grid", "repro.core.engine:LatencyEngine.trace_grid"),
    Hook("engine.solve_rows", "repro.core.engine:LatencyEngine.solve_rows", _post_solve_rows),
    Hook("engine.solve_batch", "repro.core.engine:LatencyEngine.solve_batch", _post_solve_batch),
    # repro.core.online and repro.prediction
    Hook("online.replay", "repro.core.online:OnlineEstimator.replay"),
    Hook("online.estimate", "repro.core.online:OnlineEstimator.estimate"),
    Hook("prediction.predict", "repro.prediction.maneuver:ManeuverPredictor.predict"),
    Hook("prediction.predict", "repro.prediction.constant_velocity:ConstantVelocityPredictor.predict"),
    Hook("prediction.predict", "repro.prediction.constant_accel:ConstantAccelerationPredictor.predict"),
    Hook("prediction.predict_trace", "repro.prediction.maneuver:ManeuverPredictor.predict_trace"),
    Hook("prediction.predict_trace", "repro.prediction.constant_velocity:ConstantVelocityPredictor.predict_trace"),
    Hook("prediction.predict_trace", "repro.prediction.constant_accel:ConstantAccelerationPredictor.predict_trace"),
    # repro.system
    Hook("system.on_step", "repro.system.av_system:ZhuyiOnlineSystem.on_step"),
    # repro.store
    Hook("store.put", "repro.store.store:TraceStore.put", _post_store_put),
    Hook("store.get", "repro.store.store:TraceStore.get", _post_store_get),
    # repro.batch — JSONL run lines and replay heartbeats.
    Hook("batch.write", "repro.batch.results:CampaignWriter.write"),
    Hook("batch.write", "repro.batch.results:CampaignWriter.write_row"),
    Hook("batch.write", "repro.batch.results:CampaignWriter.finish"),
    Hook("batch.write", "repro.store.replay:_write_heartbeat"),
)


def _resolve(target: str):
    """``(owner, attribute, original)`` for ``module:qualname``.

    Raises ``LookupError`` when the module, class or attribute is gone.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    original = inspect.getattr_static(owner, attribute, None)
    if not inspect.isfunction(original):
        raise LookupError(target)
    return owner, attribute, original


class Tracer:
    """Aggregating span recorder over the :data:`HOOKS` boundaries.

    Attributes:
        self_s: self time per span name (seconds).
        calls: completed spans per span name.
        counts: work counters added by the hooks' ``post`` callbacks.
        edges: ``(parent, name) -> [calls, total_s]``; the root parent
            is ``""``.
        covered_s: wall time inside outermost spans — what the traced
            layers account for; the rest is the caller's own work.
        absent: hook targets that could not be resolved.
    """

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_seconds]
        self._patches: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original)
        self._originals: dict[int, tuple[Callable, Callable]] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; the wrappers stay installed."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.edges: dict[tuple[str, str], list] = {}
        self.covered_s = 0.0

    def _wrap(self, span: str, func: Callable, post: Callable | None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append([span, 0.0])
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                _, child = stack.pop()
                self.self_s[span] += elapsed - child
                self.calls[span] += 1
                parent = stack[-1][0] if stack else ""
                edge = self.edges.setdefault((parent, span), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.covered_s += elapsed
            if post is not None:
                post(self, result)
            return result

        functools.update_wrapper(traced, func)
        self._originals[id(traced)] = (traced, func)
        return traced

    def install(self) -> None:
        """Wrap every resolvable hook target at all its call sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        loaded = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for hook in HOOKS:
            try:
                owner, attribute, original = _resolve(hook.target)
            except LookupError:
                self.absent.append(hook.target)
                continue
            traced = self._wrap(hook.span, original, hook.post)
            self._patch(owner, attribute, traced)
            if inspect.ismodule(owner):
                # Module-level functions are also reached through the
                # names other modules imported them under.
                for module in loaded:
                    for name, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, name, traced)

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append(
            (owner, attribute, inspect.getattr_static(owner, attribute))
        )
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first.

        A module first imported while the wrappers were installed bound
        a wrapper under its own name; those bindings are restored too.
        """
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
        self._originals.clear()

    def span_names(self) -> list[str]:
        """Every span name the hooks can report, in hook order."""
        return list(dict.fromkeys(hook.span for hook in HOOKS))
