"""Scalar vs batched latency-engine benchmark (and the CI parity smoke).

Runs the offline evaluator over the standard catalog — the Table 1
scenarios that exercise each threat geometry plus the density-sweep
variants whose queued traffic makes every tick a multi-actor
latency-grid problem — once per backend, asserts the two
:class:`EvaluationSeries` are byte-identical, and records the measured
speedup under ``benchmarks/out/``.

Targets (1-core container): >= 3x on the heaviest multi-actor density
scenario, >= 1.5x asserted as the hard floor across the multi-actor set
(wall-clock noise on shared 1-core hosts swings either backend by 2x
between moments — observed multi-actor ratios span 1.8-3.3x — so the
3x target is advisory; the recorded artifact carries the measured
numbers).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py           # full run
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke   # CI parity

``--smoke`` runs a coarse-stride subset and only asserts parity — it
exists so backend drift fails CI rather than benchmarks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchlib import series_fingerprint

OUT_DIR = Path(__file__).parent / "out"

#: (scenario, is the multi-actor engine showcase)
FULL_SCENARIOS = [
    ("cut_out", False),
    ("cut_in", False),
    ("vehicle_following", False),
    ("challenging_cut_in_curved", False),
    ("cut_out_dense8", True),
    ("cut_in_dense8", True),
    ("vehicle_following_dense8", True),
]
SMOKE_SCENARIOS = [("cut_out", False), ("cut_in_dense4", True)]

#: Hard floor asserted on every multi-actor scenario in the full run.
MULTI_ACTOR_FLOOR = 1.5
#: The headline target, recorded (and reported) rather than asserted.
MULTI_ACTOR_TARGET = 3.0


def run_scenario(name: str, stride: float, rounds: int = 1):
    from repro.core.evaluator import OfflineEvaluator, presample_trace
    from repro.scenarios.catalog import build_scenario

    built = build_scenario(name, seed=0)
    trace = built.run(fpr=30.0)
    if trace.has_collision:
        raise RuntimeError(f"{name}: unexpected collision, cannot benchmark")
    samples = presample_trace(trace, stride)
    timings = {"scalar": [], "batched": []}
    fingerprints = {}
    # Interleaved repeats, best-of-N per backend: the shared 1-core
    # containers this runs on drift by 2x between moments, and the
    # minimum is the least-noisy estimator of the true cost.
    for _ in range(rounds):
        for backend in ("scalar", "batched"):
            evaluator = OfflineEvaluator(
                road=built.road, stride=stride, backend=backend
            )
            started = time.perf_counter()
            series = evaluator.evaluate(trace, samples=samples)
            timings[backend].append(time.perf_counter() - started)
            fingerprints[backend] = series_fingerprint(series)
    if fingerprints["scalar"] != fingerprints["batched"]:
        raise AssertionError(
            f"{name}: batched series diverged from the scalar reference"
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
        "--stride",
        type=float,
        default=None,
        help="evaluation stride override (default: 0.05 full, 0.25 smoke)",
    )
    args = parser.parse_args(argv)

    from repro.scenarios.catalog import density_sweep

    density_sweep()
    scenarios = SMOKE_SCENARIOS if args.smoke else FULL_SCENARIOS
    stride = args.stride or (0.25 if args.smoke else 0.05)

    rows = []
    for name, multi_actor in scenarios:
        timings = run_scenario(name, stride, rounds=1 if args.smoke else 3)
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
            f"{name:28s} scalar {timings['scalar']:6.2f} s   "
            f"batched {timings['batched']:6.2f} s   "
            f"{speedup:5.2f}x   parity ok"
        )

    if args.smoke:
        print("smoke: parity identical on", [r["scenario"] for r in rows])
        return 0

    multi = [row for row in rows if row["multi_actor"]]
    best = max(row["speedup"] for row in multi)
    total_scalar = sum(row["scalar_s"] for row in rows)
    total_batched = sum(row["batched_s"] for row in rows)
    report = {
        "stride": stride,
        "rows": rows,
        "total_scalar_s": round(total_scalar, 3),
        "total_batched_s": round(total_batched, 3),
        "overall_speedup": round(total_scalar / total_batched, 2),
        "best_multi_actor_speedup": best,
        "multi_actor_floor": MULTI_ACTOR_FLOOR,
        "multi_actor_target": MULTI_ACTOR_TARGET,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "engine_speedup.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"overall {report['overall_speedup']:.2f}x; best multi-actor "
        f"{best:.2f}x (target >= {MULTI_ACTOR_TARGET:.0f}x, floor "
        f">= {MULTI_ACTOR_FLOOR:.1f}x); written to {out}"
    )

    for row in multi:
        assert row["speedup"] >= MULTI_ACTOR_FLOOR, (
            f"{row['scenario']}: only {row['speedup']:.2f}x "
            f"(floor {MULTI_ACTOR_FLOOR}x)"
        )
    if best < MULTI_ACTOR_TARGET:
        print(
            f"warning: best multi-actor speedup {best:.2f}x is below the "
            f"{MULTI_ACTOR_TARGET:.0f}x target on this host",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
