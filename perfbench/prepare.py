"""Set-up child: one timed set-up of a workload, in a fresh process.

``probe`` imports the modules the workload uses and constructs its
scenarios — the cheap set-up part, timed by the parent from outside
(interpreter start included). ``populate`` additionally records the
workload's cold campaign into a trace store under ``--workdir`` and
prints the seconds that took, in host and in reference seconds
(``speed.py``). Running population here keeps its
memory out of the measuring process's peak RSS.

Usage::

    python3 perfbench/prepare.py probe --workload NAME --seed N --workdir DIR
    python3 perfbench/prepare.py populate --workload NAME --seed N --workdir DIR
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare_process()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Meter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "populate"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.construct()
    report = {}
    if args.mode == "populate":
        meter = Meter()
        meter.start()
        workload.populate()
        meter.stop()
        report.update(populate_s=meter.reference, populate_wall_s=meter.wall)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
