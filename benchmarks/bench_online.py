"""Scalar vs batched online replay benchmark (and CI parity smoke).

Where ``bench_engine.py`` measures the latency kernel and
``bench_perception.py`` the offline evaluation pipeline, this benchmark
measures the *online* path: ``OnlineEstimator.replay`` — prediction,
threat assessment, the (tick x actor x hypothesis) latency solve and the
Equation 4/5 reductions — end to end, with the multi-hypothesis
:class:`ManeuverPredictor` supplying several futures per actor per tick.
The workload is multi-actor-heavy: the dense variants are where the
per-tick loop pays a full predict + assess + solve cycle for every
future of every queued actor at every tick, and where the batch path
collapses all of it into a handful of array programs.

Per scenario the replay runs once per backend over the same trace; the
two :class:`EvaluationSeries` must be byte-identical (the fingerprint
assert), and the measured end-to-end speedup is recorded to
``benchmarks/out/online_speedup.json``.

Targets (1-core container): >= 1.5x asserted end-to-end on every
multi-actor scenario; observed numbers land around 2-3x but shared-host
clock noise swings either backend, so only the floor is a hard assert.

Usage::

    PYTHONPATH=src python benchmarks/bench_online.py           # full run
    PYTHONPATH=src python benchmarks/bench_online.py --smoke   # CI parity
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchlib import series_fingerprint

OUT_DIR = Path(__file__).parent / "out"

#: (scenario, is a multi-actor workload with the asserted floor)
FULL_SCENARIOS = [
    ("cut_in", False),
    ("challenging_cut_in_curved", False),
    ("cut_in_dense8", True),
    ("challenging_cut_in_curved_dense4", True),
    ("challenging_cut_in_curved_dense8", True),
]
SMOKE_SCENARIOS = [
    ("cut_in", False),
    ("challenging_cut_in_curved_dense4", True),
]

#: Hard end-to-end floor asserted on every multi-actor scenario.
MULTI_ACTOR_FLOOR = 1.5


def run_scenario(name: str, period: float, rounds: int = 1):
    from repro.core.online import OnlineEstimator
    from repro.core.parameters import ZhuyiParams
    from repro.prediction.maneuver import ManeuverPredictor
    from repro.scenarios.catalog import build_scenario

    built = build_scenario(name, seed=0)
    trace = built.run(fpr=30.0)
    if trace.has_collision:
        raise RuntimeError(f"{name}: unexpected collision, cannot benchmark")
    timings = {"scalar": [], "batched": []}
    fingerprints = {}
    # Interleaved repeats, best-of-N per backend (least-noisy estimator
    # on drifting shared hosts).
    for _ in range(rounds):
        for backend in ("scalar", "batched"):
            estimator = OnlineEstimator(
                params=ZhuyiParams(),
                predictor=ManeuverPredictor(
                    road=built.road, target_lane=built.spec.ego_lane
                ),
                road=built.road,
                backend=backend,
            )
            started = time.perf_counter()
            series = estimator.replay(trace, period=period)
            timings[backend].append(time.perf_counter() - started)
            fingerprints[backend] = series_fingerprint(series)
    if fingerprints["scalar"] != fingerprints["batched"]:
        raise AssertionError(
            f"{name}: batched replay diverged from the scalar reference"
        )
    return {backend: min(values) for backend, values in timings.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid, parity assert only (the CI job)",
    )
    parser.add_argument(
        "--period",
        type=float,
        default=None,
        help="replay cadence override (default: 0.1 full, 0.25 smoke)",
    )
    args = parser.parse_args(argv)

    from repro.scenarios.catalog import density_sweep

    density_sweep()
    scenarios = SMOKE_SCENARIOS if args.smoke else FULL_SCENARIOS
    period = args.period or (0.25 if args.smoke else 0.1)

    rows = []
    for name, multi_actor in scenarios:
        timings = run_scenario(name, period, rounds=1 if args.smoke else 3)
        speedup = timings["scalar"] / timings["batched"]
        rows.append(
            {
                "scenario": name,
                "multi_actor": multi_actor,
                "scalar_s": round(timings["scalar"], 3),
                "batched_s": round(timings["batched"], 3),
                "speedup": round(speedup, 2),
                "parity": "identical",
            }
        )
        print(
            f"{name:36s} scalar {timings['scalar']:6.2f} s   "
            f"batched {timings['batched']:6.2f} s   "
            f"{speedup:5.2f}x   parity ok"
        )

    if args.smoke:
        print("smoke: parity identical on", [r["scenario"] for r in rows])
        return 0

    multi = [row for row in rows if row["multi_actor"]]
    total_scalar = sum(row["scalar_s"] for row in rows)
    total_batched = sum(row["batched_s"] for row in rows)
    report = {
        "period": period,
        "rows": rows,
        "total_scalar_s": round(total_scalar, 3),
        "total_batched_s": round(total_batched, 3),
        "overall_speedup": round(total_scalar / total_batched, 2),
        "best_multi_actor_speedup": max(row["speedup"] for row in multi),
        "multi_actor_floor": MULTI_ACTOR_FLOOR,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "online_speedup.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"overall {report['overall_speedup']:.2f}x; best multi-actor "
        f"{report['best_multi_actor_speedup']:.2f}x (floor "
        f">= {MULTI_ACTOR_FLOOR:.1f}x); written to {out}"
    )

    for row in multi:
        assert row["speedup"] >= MULTI_ACTOR_FLOOR, (
            f"{row['scenario']}: only {row['speedup']:.2f}x "
            f"(floor {MULTI_ACTOR_FLOOR}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
