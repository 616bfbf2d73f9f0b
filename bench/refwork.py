"""Fixed reference computation used to calibrate every benchmark timing.

The sandbox the benchmark was sized on changes speed by tens of percent
within a second, so raw wall times of identical code scatter widely. The
benchmark therefore times a short, fixed reference slice beside each
operation (a few slices just before and just after it) and during it (one
slice every ``PERIOD_S`` of wall time, run from a SIGALRM handler in the main
thread). The operation's wall time, less the time spent in those handlers,
is scaled by ``NOMINAL_REF_S`` over the mean slice time. The slice mixes
pure-Python integer work with small numpy reductions, like the package
itself, and keeps no allocation alive after it returns.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# Median time of one reference_work() on the 2-core sandbox the benchmark was
# sized on (Python 3.11.7, numpy 2.4.6); calibrated figures read as seconds
# there.
NOMINAL_REF_S = 0.0032
PERIOD_S = 0.1
BRACKET = 2  # slices timed just before and just after each operation

_MASK64 = (1 << 64) - 1


def reference_work() -> float:
    """Run the reference slice once; returns a value so nothing is skipped."""
    x = 0x2545F4914F6CDD1D
    acc = 0
    for _ in range(4_000):
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        acc += x & 0xFFFF
    v = np.linspace(0.0, 1.0, 64)
    s = 0.0
    for i in range(200):
        w = v * (i + 1)
        s += float(w.sum()) + float(w.max()) - float(np.dot(v, w))
    return acc + s


class Sampler:
    """Collects reference slice times beside and during timed work.

    ``clock()`` is perf_counter less the time spent in the sampling handler,
    so work timed with it excludes the slices run in the middle of it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _slice(self) -> None:
        t0 = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - t0)

    def bracket(self, count: int = BRACKET) -> None:
        for _ in range(count):
            self._slice()

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self._slice()
        self.paused += perf_counter() - t0

    @contextlib.contextmanager
    def during(self):
        """Sample one slice every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Calibration factor for the work timed beside these samples."""
        return NOMINAL_REF_S / statistics.fmean(self.samples)
