"""Process set-up shared by the benchmark and its set-up children.

Import this module first: it pins the native math libraries to one
thread before numpy loads, and puts the checkout's ``src/`` tree on
``sys.path`` so the benchmark measures the source it sits beside.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Thread-count knobs of the BLAS / OpenMP runtimes numpy may load.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare_process() -> None:
    """Pin native threads to 1 and import ``repro`` from ``src/``.

    Raises ``SystemExit(2)`` when the checkout has no source tree, so
    the benchmark fails before printing any result.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro source tree under {SRC}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
