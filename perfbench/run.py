"""Zhuyi benchmark: end-to-end throughput, or per-layer attribution.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's pass (see ``workloads.py``)
again and again until ``--seconds`` have been measured, then checks
the outputs against the scalar oracle. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``. A
``report`` line before it records the derived jitter seeds, pass
times in host and reference seconds, the sha256 of the output rows,
oracle notes and, when traced, the span tree and any hook that no
longer resolves.

Times are reported in reference seconds (``speed.py``): host time
scaled by the speed of a fixed kernel sampled twice a second
while measuring, which cancels the drift of a shared host's core
speed.

``--trace 0`` never imports the tracer. ``--trace 1`` runs one
untraced pass, then at least two passes with the tracer installed;
work counters must repeat exactly between the traced passes.

Set-up (``setup_s``) is measured in child processes: the median of
five probes (interpreter start, imports, scenario construction) plus,
for the warm workloads, the one child that populates the trace store.
All scratch files live in a fresh directory under ``.perfbench_work/``
in the checkout, removed on exit.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare_process()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from speed import Meter  # noqa: E402
from workloads import WORKLOADS, Workload, rows_sha256  # noqa: E402

WORK_ROOT = bootstrap.ROOT / ".perfbench_work"
#: Set-up probes per run; ``setup_s`` reports their median.
PROBES = 5
#: Seconds a set-up child may take before it is killed.
CHILD_TIMEOUT = 150
#: Traced passes per ``--trace 1`` run, at least.
MIN_TRACED_PASSES = 2
#: Counters that must repeat exactly between traced passes.
DETERMINISTIC = (
    "sim.steps",
    "perception.detect.calls",
    "engine.solve_rows.rows",
    "engine.iterations",
    "threat.gate_pass_ratio",
    "store.hits",
    "online.estimate.calls",
)


def load_spec() -> dict:
    return json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def set_up_child(mode: str, workload: Workload) -> tuple[Meter, dict]:
    """Run one ``prepare.py`` child; returns (its meter, its report)."""
    command = [
        sys.executable,
        str(bootstrap.HERE / "prepare.py"),
        mode,
        "--workload", workload.name,
        "--seed", str(workload.seed),
        "--workdir", str(workload.workdir),
    ]
    meter = Meter()
    meter.start()
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    meter.stop()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child {mode} failed:\n{proc.stderr}")
    return meter, json.loads(proc.stdout.splitlines()[-1])


def set_up(workload: Workload) -> tuple[float, dict]:
    """Time the workload's set-up; returns (setup_s, report fields)."""
    probes = [set_up_child("probe", workload)[0] for _ in range(PROBES)]
    setup_s = statistics.median(meter.reference for meter in probes)
    report = {"setup_probe_wall_s": [meter.wall for meter in probes]}
    if workload.warm:
        _, populated = set_up_child("populate", workload)
        setup_s += populated["populate_s"]
        report["populate_wall_s"] = populated["populate_wall_s"]
    # The measuring process pays the same imports and construction
    # untimed, so the first pass starts warm.
    workload.construct()
    return setup_s, report


def measure(workload: Workload, seconds: float, min_passes: int = 1,
            before=None, after=None) -> list[tuple[Meter, object]]:
    """Whole passes until ``seconds`` are used; ``[(meter, result)]``."""
    passes = []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        if before is not None:
            before()
        gc.collect()
        meter = Meter()
        meter.start()
        result = workload.run_pass()
        meter.stop()
        if after is not None:
            after(meter)
        passes.append((meter, result))
    return passes


def end_to_end(passes, setup_s: float, rss_mb: float, ok_frac: float) -> dict:
    seconds = sum(meter.reference for meter, _ in passes)
    return {
        "ticks_per_s": sum(r.ticks for _, r in passes) / seconds,
        "sim_s_per_s": sum(r.scenario_s for _, r in passes) / seconds,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": ok_frac,
    }


def traced(workload: Workload, seconds: float):
    """One untraced pass, then traced passes; per-layer metrics.

    Span times are converted to reference seconds with their pass's
    speed factor.
    """
    from tracer import Tracer

    untraced = measure(workload, 0.0)
    tracer = Tracer()
    snapshots = []

    def snapshot(meter: Meter) -> None:
        factor = meter.factor
        counts = dict(tracer.counts)
        counts.update(
            {f"{name}.calls": tracer.calls[name] for name in tracer.span_names()}
        )
        rows = counts["threat.gate_rows"]
        counts["threat.gate_pass_ratio"] = (
            counts["threat.gate_passed"] / rows if rows else 0.0
        )
        snapshots.append(
            {
                "seconds": meter.reference,
                "self_s": {
                    name: value * factor
                    for name, value in tracer.self_s.items()
                },
                "other_s": (meter.elapsed - tracer.covered_s) * factor,
                "counts": counts,
                "edges": {
                    f"{parent or '<pass>'} > {name}": [calls, total * factor]
                    for (parent, name), (calls, total) in tracer.edges.items()
                },
            }
        )

    tracer.install()
    try:
        passes = measure(
            workload, seconds, MIN_TRACED_PASSES,
            before=tracer.reset, after=snapshot,
        )
    finally:
        tracer.uninstall()

    metrics = {}
    first = snapshots[0]
    for name in tracer.span_names():
        metrics[f"{name}.self_s"] = statistics.fmean(
            snap["self_s"].get(name, 0.0) for snap in snapshots
        )
    metrics.update(first["counts"])
    metrics["batch.other.self_s"] = statistics.fmean(
        snap["other_s"] for snap in snapshots
    )
    metrics["trace.overhead_s"] = (
        statistics.median(snap["seconds"] for snap in snapshots)
        - untraced[0][0].reference
    )
    unstable = [
        name
        for name in DETERMINISTIC
        if any(snap["counts"][name] != first["counts"][name]
               for snap in snapshots)
    ]
    report = {
        "edges": first["edges"],
        "absent": tracer.absent,
        "unstable_counters": unstable,
    }
    return untraced + passes, metrics, report


def run(args) -> dict:
    spec = load_spec()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s, setup_report = set_up(workload)
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "jitter_seeds": list(workload.seeds),
            "cells": [list(cell) for cell in workload.cells()],
            **setup_report,
        }
        if args.trace:
            passes, metrics, trace_report = traced(workload, args.seconds)
            report.update(trace_report)
            failed = 1 if trace_report["unstable_counters"] else 0
            attempted = 1
            wanted = spec["per_layer"]
        else:
            passes = measure(workload, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failed = attempted = 0
            wanted = spec["end_to_end"]

        reference = passes[0][1]
        digest = rows_sha256(reference.rows)
        for _, result in passes:
            attempted += len(result.rows)
            failed += result.errors
            if rows_sha256(result.rows) != digest:
                failed += len(result.rows)
        check = workload.check(reference)
        attempted += check.attempted
        failed += check.failed
        host_wall = sum(meter.wall for meter, _ in passes)
        report.update(
            passes=len(passes),
            pass_wall_s=[meter.wall for meter, _ in passes],
            pass_reference_s=[meter.reference for meter, _ in passes],
            host_ticks_per_s=sum(r.ticks for _, r in passes) / host_wall,
            rows_sha256=digest,
            oracle_notes=check.notes,
        )
        if not args.trace:
            metrics = end_to_end(
                passes, setup_s, rss_mb, (attempted - failed) / attempted
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    print(json.dumps({"report": report}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]],
                "unit": entry["unit"],
            }
            for entry in wanted
        },
    }


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks: scratch files are removed
    # and a running set-up child is killed by ``subprocess.run``.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
