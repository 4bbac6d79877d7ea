"""Scalar vs batched trace-level perception benchmark (and CI parity smoke).

Where ``bench_engine.py`` measures the latency-search kernel, this
benchmark measures the *whole* batched evaluation pipeline after the
trace-level perception layer landed: the Equation 5 visibility tables
(:meth:`repro.perception.sensor.CameraRig.visible_actors_trace`) plus the
exact composite-centerline Frenet kernel that lets the corridor mask and
gate table stay vectorized on curved roads. The workload is therefore
curved-road-heavy: the composite (straight+arc) projection used to be
the per-point hot spot on ``challenging_cut_in_curved``, and the dense
variants crowd the arc with queued traffic.

Per scenario the offline evaluator runs once per backend over the same
presampled trace; the two :class:`EvaluationSeries` must be
byte-identical (the fingerprint assert), and the measured end-to-end
speedup is recorded to ``benchmarks/out/perception_speedup.json``.

Targets (1-core container): >= 1.5x asserted end-to-end on every
multi-actor curved scenario; the observed numbers land well above the
floor but shared-host clock noise swings either backend by ~2x, so only
the floor is a hard assert.

With ``--noise`` the comparison flips to stochastic perception: the
same batched pipeline with counter-based miss/position-noise sampling
(:mod:`repro.perception.noise`) enabled vs disabled, asserting noisy
stays within :data:`NOISE_OVERHEAD_CEILING` of noise-free and that the
noisy scalar reference reproduces the noisy batched series exactly;
results go to ``benchmarks/out/perception_noise.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perception.py           # full run
    PYTHONPATH=src python benchmarks/bench_perception.py --smoke   # CI parity
    PYTHONPATH=src python benchmarks/bench_perception.py --noise   # RNG cost
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchlib import series_fingerprint

OUT_DIR = Path(__file__).parent / "out"

#: (scenario, is a multi-actor curved showcase with the asserted floor)
FULL_SCENARIOS = [
    ("challenging_cut_in_curved", False),
    ("cut_in_dense8", True),
    ("challenging_cut_in_curved_dense4", True),
    ("challenging_cut_in_curved_dense8", True),
]
SMOKE_SCENARIOS = [
    ("challenging_cut_in_curved", False),
    ("challenging_cut_in_curved_dense4", True),
]

#: Hard end-to-end floor asserted on every multi-actor scenario.
MULTI_ACTOR_FLOOR = 1.5

#: Hard ceiling on the cost of enabling stochastic perception
#: (``--noise``): noisy batched must stay within this factor of
#: noise-free batched, end to end including the counter-based draw
#: sampling at presample time. The draws are a handful of vectorized
#: hash passes over the (tick x actor) grid, so the observed overhead
#: is a few percent; 1.2x is the loud-regression tripwire.
NOISE_OVERHEAD_CEILING = 1.2

#: The --noise workload's stochastic perception setting.
NOISE_SPEC = {"miss_rate": 0.15, "position_noise": 0.3, "seed": 42}


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
    # Interleaved repeats, best-of-N per backend (least-noisy estimator
    # on drifting shared hosts).
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


def run_noise_scenario(name: str, stride: float, rounds: int = 3):
    """Noise-free vs noisy batched timings (plus noisy parity check).

    The timed region covers presampling too: the counter-based draws
    happen at presample time, so excluding them would hide exactly the
    cost this benchmark exists to bound.
    """
    from repro.core.evaluator import OfflineEvaluator, presample_trace
    from repro.perception.noise import PerceptionNoise
    from repro.scenarios.catalog import build_scenario

    built = build_scenario(name, seed=0)
    trace = built.run(fpr=30.0)
    if trace.has_collision:
        raise RuntimeError(f"{name}: unexpected collision, cannot benchmark")
    noise = PerceptionNoise(**NOISE_SPEC)
    timings = {"clean": [], "noisy": []}
    fingerprints = {}
    for _ in range(rounds):
        for label, spec in (("clean", None), ("noisy", noise)):
            evaluator = OfflineEvaluator(
                road=built.road, stride=stride, backend="batched", noise=spec
            )
            started = time.perf_counter()
            samples = presample_trace(trace, stride, noise=spec)
            series = evaluator.evaluate(trace, samples=samples)
            timings[label].append(time.perf_counter() - started)
            fingerprints[label] = series_fingerprint(series)
    # The order-independence contract, spot-checked under load: the
    # scalar reference must reproduce the noisy batched series exactly.
    scalar = OfflineEvaluator(
        road=built.road, stride=stride, backend="scalar", noise=noise
    ).evaluate(trace, samples=presample_trace(trace, stride, noise=noise))
    if series_fingerprint(scalar) != fingerprints["noisy"]:
        raise AssertionError(
            f"{name}: noisy batched series diverged from the scalar reference"
        )
    return {label: min(values) for label, values in timings.items()}


def run_noise_benchmark(scenarios, stride: float, smoke: bool) -> int:
    rows = []
    for name, _ in scenarios:
        timings = run_noise_scenario(name, stride, rounds=1 if smoke else 3)
        overhead = timings["noisy"] / timings["clean"]
        rows.append(
            {
                "scenario": name,
                "clean_s": round(timings["clean"], 3),
                "noisy_s": round(timings["noisy"], 3),
                "overhead": round(overhead, 3),
                "parity": "identical",
            }
        )
        print(
            f"{name:36s} clean {timings['clean']:6.2f} s   "
            f"noisy {timings['noisy']:6.2f} s   "
            f"{overhead:5.2f}x   parity ok"
        )

    if smoke:
        print("smoke: noisy parity identical on", [r["scenario"] for r in rows])
        return 0

    total_clean = sum(row["clean_s"] for row in rows)
    total_noisy = sum(row["noisy_s"] for row in rows)
    report = {
        "stride": stride,
        "noise": NOISE_SPEC,
        "rows": rows,
        "total_clean_s": round(total_clean, 3),
        "total_noisy_s": round(total_noisy, 3),
        "overall_overhead": round(total_noisy / total_clean, 3),
        "overhead_ceiling": NOISE_OVERHEAD_CEILING,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "perception_noise.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"overall noise overhead {report['overall_overhead']:.2f}x "
        f"(ceiling <= {NOISE_OVERHEAD_CEILING:.1f}x); written to {out}"
    )
    for row in rows:
        assert row["overhead"] <= NOISE_OVERHEAD_CEILING, (
            f"{row['scenario']}: noisy batched cost {row['overhead']:.2f}x "
            f"noise-free (ceiling {NOISE_OVERHEAD_CEILING}x)"
        )
    return 0


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
    parser.add_argument(
        "--noise",
        action="store_true",
        help=(
            "benchmark stochastic perception instead: noisy batched vs "
            "noise-free batched (ceiling "
            f"<= {NOISE_OVERHEAD_CEILING}x), with a noisy scalar parity "
            "check; writes benchmarks/out/perception_noise.json"
        ),
    )
    args = parser.parse_args(argv)

    from repro.scenarios.catalog import density_sweep

    density_sweep()
    scenarios = SMOKE_SCENARIOS if args.smoke else FULL_SCENARIOS
    stride = args.stride or (0.25 if args.smoke else 0.05)

    if args.noise:
        return run_noise_benchmark(scenarios, stride, args.smoke)

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
        "stride": stride,
        "rows": rows,
        "total_scalar_s": round(total_scalar, 3),
        "total_batched_s": round(total_batched, 3),
        "overall_speedup": round(total_scalar / total_batched, 2),
        "best_multi_actor_speedup": max(row["speedup"] for row in multi),
        "multi_actor_floor": MULTI_ACTOR_FLOOR,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "perception_speedup.json"
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
