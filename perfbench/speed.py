"""Host-speed normalization of measured time.

On a shared host the speed of one core drifts with its neighbours'
load: a fixed pure-Python loop was seen to take anywhere from 1x to
1.8x its fastest time within a minute, with CPU time tracking wall
time, so no choice of clock removes the drift. The benchmark therefore
samples the speed of a small fixed reference :func:`kernel` every
:data:`SAMPLE_INTERVAL_S` while it measures (from a ``SIGALRM``
handler, so samples land inside long requests too) and converts wall
time into *reference seconds*: wall time scaled by how much slower the
kernel ran during the stretch than its nominal
:data:`REFERENCE_KERNEL_S`. A slow spell on the host slows the kernel
and the workload together and cancels out; a change to the measured
program moves the workload alone.

The kernel is benchmark code only — it never calls ``repro`` — so no
change to the program can move it. It mixes the three kinds of work
the workloads do: interpreter-bound code, small-array numpy and a
memory-bound sort. Sampling time is excluded from the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Nominal seconds of one :func:`kernel` call. Only sets the unit: a
#: reference second is host time at the speed where the kernel takes
#: this long (a quiet 2.1 GHz Xeon core).
REFERENCE_KERNEL_S = 0.01
#: Seconds between speed samples while a :class:`Meter` runs.
SAMPLE_INTERVAL_S = 0.5

_SORT_INPUT = np.linspace(1.0, 0.0, 250_000)


def kernel() -> None:
    """A fixed mix of interpreter, small-array and memory-bound work."""
    total = 0
    for i in range(50_000):
        total += (i * 7) % 13
    values = np.linspace(0.0, 1.0, 2048)
    for _ in range(240):
        values = np.sqrt(values * values + 1.0) - 0.5
    np.sort(_SORT_INPUT + values[0])


def kernel_seconds() -> float:
    """Wall seconds of one :func:`kernel` call, now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Meter:
    """Wall and reference seconds of one measured stretch.

    :meth:`start` samples the kernel and starts a ``SIGALRM`` timer
    that samples it again every :data:`SAMPLE_INTERVAL_S`;
    :meth:`stop` cancels the timer and takes a last sample. The
    stretch converts with the median sample. One meter runs at a time.

    Attributes:
        elapsed: host seconds between start and stop, sampling included
            (the clock traced spans see).
        wall: ``elapsed`` minus the time spent sampling.
        reference: ``wall`` in reference seconds.
        samples: the kernel times sampled.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.wall = 0.0
        self.reference = 0.0
        self.samples: list[float] = []
        self._sampling = 0.0
        self._started = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        started = time.perf_counter()
        self.samples.append(kernel_seconds())
        self._sampling += time.perf_counter() - started

    def start(self) -> None:
        # The first calls in a process fault in fresh memory and would
        # read slow; run one unsampled.
        kernel()
        self._sample()
        self._sampling = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.elapsed = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = self.elapsed - self._sampling
        self._sample()
        speed = statistics.median(self.samples)
        self.reference = self.wall * REFERENCE_KERNEL_S / speed

    @property
    def factor(self) -> float:
        """Reference seconds per elapsed host second (for span times,
        which include sampling)."""
        return self.reference / self.elapsed if self.elapsed else 1.0
