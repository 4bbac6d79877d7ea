"""Consolidate every per-benchmark speedup artifact into one summary.

Each performance benchmark writes its own machine-readable report under
``benchmarks/out/`` (``engine_speedup.json``, ``online_speedup.json``,
``perception_speedup.json``, ``store_speedup.json``,
``perception_noise.json``, ...). This script
merges them into ``benchmarks/out/BENCH_summary.json`` — one headline
row per artifact: the measured speedup (or overhead), the asserted
floor where the benchmark has one, and the parity status — so a single
file answers "what does each optimization buy, and is it still exact?".

Usage::

    PYTHONPATH=src python benchmarks/bench_summary.py

Artifacts are read as-is; run the individual benchmarks first to
refresh stale numbers. Unknown shapes are carried through with their
raw top-level scalars rather than dropped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
SUMMARY = OUT_DIR / "BENCH_summary.json"


def headline(name: str, data: dict) -> dict:
    """One summary row for an artifact, tolerant of the three shapes.

    Per-scenario benchmarks carry ``rows`` plus overall/best speedups;
    single-measurement benchmarks carry a flat ``speedup``; the noise
    benchmark reports ``overhead`` ratios instead.
    """
    row: dict = {"artifact": f"{name}.json"}
    if "rows" in data:
        row["scenarios"] = len(data["rows"])
        for key in (
            "overall_speedup",
            "best_multi_actor_speedup",
            "multi_actor_floor",
        ):
            if key in data:
                row[key] = data[key]
        overheads = [
            r["overhead"] for r in data["rows"] if "overhead" in r
        ]
        if overheads:
            row["max_overhead"] = max(overheads)
        parities = {r.get("parity") for r in data["rows"]}
        row["parity"] = (
            "identical" if parities == {"identical"} else sorted(parities)
        )
    else:
        for key in ("speedup", "floor", "parity", "runs", "workers"):
            if key in data:
                row[key] = data[key]
    if len(row) == 1:
        # Unknown shape: keep its scalars so nothing silently vanishes.
        row.update(
            {
                key: value
                for key, value in data.items()
                if isinstance(value, (int, float, str))
            }
        )
    return row


def main(argv=None) -> int:
    artifacts = sorted(
        path
        for path in OUT_DIR.glob("*.json")
        if path.name != SUMMARY.name
    )
    if not artifacts:
        print(f"no artifacts under {OUT_DIR}; run the benchmarks first")
        return 1
    rows = []
    for path in artifacts:
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            print(f"skipping unreadable {path.name}: {exc}")
            continue
        rows.append(headline(path.stem, data))
    summary = {"artifacts": len(rows), "benchmarks": rows}
    SUMMARY.write_text(json.dumps(summary, indent=2) + "\n")
    width = max(len(row["artifact"]) for row in rows)
    for row in rows:
        gain = row.get("speedup") or row.get("overall_speedup")
        note = (
            f"{gain:.2f}x"
            if isinstance(gain, (int, float))
            else f"overhead <= {row['max_overhead']:.2f}x"
            if "max_overhead" in row
            else "-"
        )
        print(f"  {row['artifact']:<{width}}  {note}")
    print(f"{len(rows)} artifacts merged into {SUMMARY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
