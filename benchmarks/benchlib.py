"""Shared helpers of the ``bench_*.py`` parity scripts.

The scripts run as ``PYTHONPATH=src python benchmarks/bench_<name>.py``,
so this directory is first on ``sys.path`` and they import this module
by its bare name.
"""

from __future__ import annotations

import json


def series_fingerprint(series) -> str:
    """Canonical byte representation of a whole evaluation series."""
    payload = [
        {
            "time": tick.time,
            "cameras": {
                camera: (estimate.fpr, estimate.latency)
                for camera, estimate in sorted(tick.camera_estimates.items())
            },
            "actors": dict(sorted(tick.actor_latencies.items())),
            "ego": (tick.ego_speed, tick.ego_accel),
        }
        for tick in series.ticks
    ]
    return json.dumps(payload)
