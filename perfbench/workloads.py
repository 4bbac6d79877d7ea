"""The four benchmark workloads and their correctness oracles.

Each workload is one closed-loop caller: a single in-process client
that issues its next request only after the previous one returned,
through ``CampaignRunner(workers=1)`` or the equivalent single-process
service. One *pass* is the workload's whole request set; the benchmark
repeats identical passes until its measuring time is used up.

Inputs come from the benchmark seed alone: :func:`jitter_seed` derives
the scenario jitter seed from it, and nothing else varies between runs
of one seed.

Workloads (``BENCHMARK.json`` states why each is included):

``cold_campaign``
    A campaign over the dense trio, one jitter seed per scenario, at
    30 FPR on the default backend with an empty trace store. What
    every first campaign and every ``repro fuzz`` generation pays:
    the closed-loop simulator dominates, estimation and store writes
    follow.
``warm_sweep``
    The same cells loaded from a store populated during set-up,
    evaluated under four ``ZhuyiParams`` variants. No simulation:
    offline estimation (threat sampling and ``solve_rows``) dominates.
``online_replay``
    ``ReplayService`` over the stored cells with three online
    predictor/aggregator variants at a 0.1 s stride. The same engine
    fed prediction hypotheses instead of recorded futures; replay
    JSONL and heartbeat writes.
``online_monitor``
    Closed-loop runs, one jitter seed per scenario, with the
    ``ZhuyiOnlineSystem`` hook (maneuver predictor, 90th-percentile
    aggregation, 36 frames/s work prioritizer, 0.1 s period) — the
    paper's in-vehicle safety check and the only route through
    ``OnlineEstimator.estimate`` and ``LatencyEngine.solve_batch``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

#: The dense-traffic trio every offline workload runs.
TRIO = ("cut_in_dense8", "cut_out_dense8", "vehicle_following_dense8")
#: Closed-loop scenarios of the online monitor.
MONITOR_SCENARIOS = ("cut_out_fast", "cut_in_dense8")
CAMPAIGN_FPR = 30.0
CAMPAIGN_STRIDE = 0.05
REPLAY_STRIDE = 0.1
#: Uniform start rate of the monitored runs: the 36 frames/s budget
#: spread over the three analyzed cameras.
MONITOR_FPR = 12.0
MONITOR_BUDGET = 36.0
MONITOR_CAMERAS = ("front_120", "left", "right")


def jitter_seed(seed: int) -> int:
    """The scenario jitter seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"perfbench/{seed}/0".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def canonical(row: dict) -> str:
    """One output row as canonical JSON (floats in shortest repr)."""
    return json.dumps(row, sort_keys=True)


def rows_sha256(rows: list[dict]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(canonical(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class PassResult:
    """What one pass produced.

    ``rows`` are the workload's output rows in a canonical dict form;
    ``ticks`` the Zhuyi estimation ticks delivered; ``scenario_s`` the
    scenario seconds simulated or re-estimated (each cell once);
    ``errors`` the rows that carry a captured failure.
    """

    rows: list[dict]
    ticks: int
    scenario_s: float
    errors: int


@dataclass
class CheckResult:
    """Outcome of a workload's oracle comparison."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def compare(self, label: str, got: list[dict], want: list[dict]) -> None:
        """Byte-compare two row lists, one attempt per expected row."""
        self.attempted += len(want)
        bad = sum(
            1
            for a, b in zip(got, want)
            if canonical(a) != canonical(b)
        ) + abs(len(want) - len(got))
        self.failed += bad
        if bad:
            self.notes.append(f"{label}: {bad} of {len(want)} rows differ")


def _without_index(row: dict) -> dict:
    return {key: value for key, value in row.items() if key != "index"}


class Workload:
    """Base: a named request set over the seed-derived cells."""

    name = ""
    #: Whether set-up populates a trace store (in a child process).
    warm = False
    #: Modules a pass uses, imported during set-up.
    modules = ("repro.batch", "repro.store")
    #: The scenarios and the FPR of the workload's cells.
    scenarios = TRIO
    fpr = CAMPAIGN_FPR

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        #: Jitter seeds of the workload's cells (one per scenario).
        self.seeds = (jitter_seed(seed),)
        self._passes = 0

    # -- set-up ---------------------------------------------------------

    def construct(self) -> None:
        """Imports and scenario construction (the cheap set-up part)."""
        for module in self.modules:
            importlib.import_module(module)
        from repro.scenarios.catalog import build_scenario

        for scenario, jitter, _ in self.cells():
            build_scenario(scenario, seed=jitter)

    def populate(self) -> None:
        """Record the cold campaign into the workload's store."""
        from repro.batch import CampaignRunner
        from repro.store import TraceStore

        result = CampaignRunner(
            workers=1, store=TraceStore(self.store_dir)
        ).run(self.cold_campaign(), out=self.cold_rows_path)
        if result.failures():
            raise RuntimeError(
                "store population failed: "
                + "; ".join(s.error for s in result.failures())
            )

    @property
    def store_dir(self) -> Path:
        return self.workdir / "store"

    @property
    def cold_rows_path(self) -> Path:
        return self.workdir / "populate.jsonl"

    def cold_campaign(self, **overrides):
        from repro.batch import Campaign

        settings = dict(
            scenarios=self.scenarios,
            seeds=self.seeds,
            fprs=(self.fpr,),
            stride=CAMPAIGN_STRIDE,
        )
        settings.update(overrides)
        return Campaign(**settings)

    def cells(self) -> list[tuple[str, int, float]]:
        """``(scenario, jitter seed, fpr)`` in campaign grid order."""
        return [
            (scenario, jitter, self.fpr)
            for scenario in self.scenarios
            for jitter in self.seeds
        ]

    def fresh_dir(self, label: str) -> Path:
        self._passes += 1
        path = self.workdir / f"{label}-{self._passes:03d}"
        path.mkdir(parents=True)
        return path

    # -- measured work ---------------------------------------------------

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, reference: PassResult) -> CheckResult:
        raise NotImplementedError

    def oracle_cell(self) -> tuple[str, int, float]:
        """The cell re-run through the scalar oracle (rotates by seed)."""
        cells = self.cells()
        return cells[self.seed % len(cells)]

    def oracle_variant(self, variants):
        """The variant the scalar oracle re-runs (rotates by seed)."""
        return variants[(self.seed // len(self.cells())) % len(variants)]


def _campaign_pass(campaign, store_root: Path, out: Path) -> PassResult:
    from repro.batch import CampaignRunner
    from repro.store import TraceStore

    result = CampaignRunner(workers=1, store=TraceStore(store_root)).run(
        campaign, out=out
    )
    summaries = sorted(result.summaries, key=lambda s: s.index)
    durations = {
        (s.scenario, s.seed, s.fpr): s.duration for s in summaries
    }
    return PassResult(
        rows=[s.to_dict() for s in summaries],
        ticks=sum(s.ticks for s in summaries),
        scenario_s=sum(durations.values()),
        errors=sum(1 for s in summaries if s.error is not None),
    )


class ColdCampaign(Workload):
    """The dense trio with an empty store: simulation-bound."""

    name = "cold_campaign"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        #: The store the first pass recorded, for the oracle.
        self.first_store: Path | None = None

    def run_pass(self) -> PassResult:
        where = self.fresh_dir("cold")
        if self.first_store is None:
            self.first_store = where / "store"
        return _campaign_pass(
            self.cold_campaign(), where / "store", where / "campaign.jsonl"
        )

    def check(self, reference: PassResult) -> CheckResult:
        from repro.batch.runner import execute_cell
        from repro.store import TraceStore

        check = CheckResult()
        cell = self.oracle_cell()
        specs = [
            spec
            for spec in self.cold_campaign(backend="scalar").runs()
            if (spec.scenario, spec.seed, spec.fpr) == cell
        ]
        # Loaded from the store the first pass recorded: the oracle
        # covers the store round trip, and the pass digests already
        # cover repeat simulation.
        store = TraceStore(self.first_store)
        got = [s.to_dict() for s in execute_cell(specs, store=store)]
        indices = {spec.index for spec in specs}
        want = [row for row in reference.rows if row["index"] in indices]
        check.compare(f"scalar oracle {cell[0]}", got, want)
        return check


def sweep_variants():
    from repro.batch.campaign import DEFAULT_VARIANT, ParamVariant
    from repro.core.parameters import ZhuyiParams

    base = ZhuyiParams()
    return (
        # The paper constants under the default name, so these rows
        # compare byte for byte with the set-up campaign's.
        ParamVariant(DEFAULT_VARIANT),
        ParamVariant("c1_085", replace(base, c1=0.85)),
        ParamVariant("c2_085", replace(base, c2=0.85)),
        ParamVariant("c1c2_085", replace(base, c1=0.85, c2=0.85)),
    )


class WarmSweep(Workload):
    """Stored cells under four parameter variants: estimation-bound."""

    name = "warm_sweep"
    warm = True

    def campaign(self, **overrides):
        return self.cold_campaign(variants=sweep_variants(), **overrides)

    def run_pass(self) -> PassResult:
        where = self.fresh_dir("sweep")
        return _campaign_pass(
            self.campaign(), self.store_dir, where / "campaign.jsonl"
        )

    def check(self, reference: PassResult) -> CheckResult:
        from repro.batch import CampaignResult
        from repro.batch.runner import execute_cell
        from repro.store import TraceStore

        check = CheckResult()
        # The paper-variant rows equal the cold rows set-up recorded.
        cold = CampaignResult.load_jsonl(self.cold_rows_path).summaries
        paper = [
            _without_index(row)
            for row in reference.rows
            if row["variant"] == sweep_variants()[0].name
        ]
        check.compare(
            "paper variant vs set-up cold rows",
            paper,
            [_without_index(s.to_dict()) for s in cold],
        )
        cell = self.oracle_cell()
        variant = self.oracle_variant(sweep_variants())
        specs = [
            spec
            for spec in self.campaign(backend="scalar").runs()
            if (spec.scenario, spec.seed, spec.fpr) == cell
            and spec.variant == variant.name
        ]
        got = [
            s.to_dict()
            for s in execute_cell(specs, store=TraceStore(self.store_dir))
        ]
        indices = {spec.index for spec in specs}
        want = [row for row in reference.rows if row["index"] in indices]
        check.compare(f"scalar oracle {cell[0]} {variant.name}", got, want)
        return check


def online_variants():
    from repro.store import ReplayVariant

    return (
        ReplayVariant("maneuver_max", predictor="maneuver", aggregator="max"),
        ReplayVariant(
            "maneuver_p90", predictor="maneuver", aggregator="percentile:90"
        ),
        ReplayVariant("cv_max", predictor="cv", aggregator="max"),
    )


class OnlineReplay(Workload):
    """Stored cells under three online predictor variants."""

    name = "online_replay"
    warm = True

    def plan(self, cells=None, variants=None, backend: str = "batched"):
        from repro.store import ReplayPlan

        return ReplayPlan(
            cells=tuple(self.cells() if cells is None else cells),
            variants=online_variants() if variants is None else variants,
            stride=REPLAY_STRIDE,
            backend=backend,
        )

    def run_pass(self) -> PassResult:
        from repro.store import ReplayService, TraceStore

        where = self.fresh_dir("replay")
        rows = ReplayService(store=TraceStore(self.store_dir)).run(
            self.plan(), out=where / "replay.jsonl"
        )
        durations = {
            (row["scenario"], row["seed"], row["fpr"]): row["duration"]
            for row in rows
        }
        return PassResult(
            rows=rows,
            ticks=sum(row["ticks"] for row in rows),
            scenario_s=sum(durations.values()),
            errors=sum(1 for row in rows if row["error"] is not None),
        )

    def check(self, reference: PassResult) -> CheckResult:
        from repro.store import ReplayService, TraceStore

        check = CheckResult()
        cell = self.oracle_cell()
        variant = self.oracle_variant(online_variants())
        got = ReplayService(store=TraceStore(self.store_dir)).run(
            self.plan(cells=[cell], variants=[variant], backend="scalar")
        )
        want = [
            row
            for row in reference.rows
            if (row["scenario"], row["seed"], row["fpr"]) == cell
            and row["variant"] == variant.name
        ]
        check.compare(
            f"scalar oracle {cell[0]} {variant.name}",
            [_without_index(row) for row in got],
            [_without_index(row) for row in want],
        )
        return check


def _record_row(record) -> dict:
    """An online record in canonical dict form."""
    tick = record.tick
    return {
        "time": tick.time,
        "cameras": {
            camera: [
                estimate.latency,
                estimate.fpr,
                estimate.binding_actor,
                estimate.unavoidable,
                estimate.actor_count,
            ]
            for camera, estimate in sorted(tick.camera_estimates.items())
        },
        "actors": {str(k): v for k, v in sorted(tick.actor_latencies.items())},
        "safe": record.verdict.safe,
        "alarms": [
            [alarm.camera, alarm.operating_fpr, alarm.required_fpr]
            for alarm in record.verdict.alarms
        ],
        "applied": record.applied_rates,
    }


class OnlineMonitor(Workload):
    """Closed-loop runs with the online safety check in the loop."""

    name = "online_monitor"
    modules = ("repro.system", "repro.core.online", "repro.prediction.maneuver")
    scenarios = MONITOR_SCENARIOS
    fpr = MONITOR_FPR

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        #: Each cell's records from the first pass, for the oracle.
        self.first_records: dict[tuple, list[dict]] = {}

    def monitored_run(self, cell, backend: str = "batched"):
        """One closed-loop run with the online system hooked in."""
        from repro.core.aggregation import PercentileAggregator
        from repro.core.online import OnlineEstimator
        from repro.core.parameters import ZhuyiParams
        from repro.prediction.maneuver import ManeuverPredictor
        from repro.scenarios.catalog import build_scenario
        from repro.system import SafetyChecker, WorkPrioritizer, ZhuyiOnlineSystem

        scenario, jitter, fpr = cell
        built = build_scenario(scenario, seed=jitter)
        system = ZhuyiOnlineSystem(
            estimator=OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ManeuverPredictor(
                    road=built.road, target_lane=built.spec.ego_lane
                ),
                road=built.road,
                aggregator=PercentileAggregator(90.0),
                backend=backend,
            ),
            checker=SafetyChecker(),
            prioritizer=WorkPrioritizer(
                total_budget=MONITOR_BUDGET, cameras=MONITOR_CAMERAS
            ),
            period=0.1,
        )
        trace = built.run(fpr=fpr, hooks=[system])
        return trace, [_record_row(record) for record in system.records]

    def run_pass(self) -> PassResult:
        rows, ticks, seconds, errors = [], 0, 0.0, 0
        for cell in self.cells():
            row = {"scenario": cell[0], "seed": cell[1], "fpr": cell[2]}
            try:
                trace, records = self.monitored_run(cell)
            except Exception as exc:  # noqa: BLE001 - counted as a failed row
                row["error"] = f"{type(exc).__name__}: {exc}"
                errors += 1
            else:
                row.update(
                    collided=trace.has_collision,
                    duration=trace.duration,
                    records=len(records),
                    records_sha256=rows_sha256(records),
                    error=None,
                )
                ticks += len(records)
                seconds += trace.duration
                self.first_records.setdefault(cell, records)
            rows.append(row)
        return PassResult(rows=rows, ticks=ticks, scenario_s=seconds, errors=errors)

    def check(self, reference: PassResult) -> CheckResult:
        check = CheckResult()
        cell = self.oracle_cell()
        _, scalar_records = self.monitored_run(cell, backend="scalar")
        check.compare(
            f"scalar estimator records {cell[0]}",
            self.first_records.get(cell, []),
            scalar_records,
        )
        return check


WORKLOADS = {
    cls.name: cls
    for cls in (ColdCampaign, WarmSweep, OnlineReplay, OnlineMonitor)
}
