"""The speed of the CPU this process runs on, sampled while the work runs.

The machine's speed drifts by tens of percent over seconds, per CPU, as
other tenants load the host; process CPU time drifts with it.  A run
therefore samples its own speed: every ``PERIOD`` seconds a timer signal
runs a fixed snippet of exact arithmetic in this thread and times it.
``Clock.scaled`` integrates ``REFERENCE_S / snippet time`` over an
interval, leaving out the snippets themselves, which gives the interval's
length in seconds at the reference speed: a run on a CPU slowed to half
speed counts half its wall time.
"""
from __future__ import annotations

import gc
import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD = 0.1
# a fixed snippet time that sets the unit; the snippet takes 0.5-1.1 ms
# on the 2-core Xeon KVM guest (Python 3.11) of README.md's figures
REFERENCE_S = 0.0008


def snippet():
    """Runs with the cyclic GC off, so that its time does not depend on how
    many objects the workload keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _exact_arithmetic()
    finally:
        if enabled:
            gc.enable()


def _exact_arithmetic():
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i % 97, i % 13 + 1)
        table[(i, i & 7)] = acc.numerator & 1023
    return acc


class Clock:
    """Samples speed on SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.factors: list[float] = []
        self._cumulative: list[float] = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        snippet()
        t1 = perf_counter()
        self.starts.append(t0)
        self.times.append(t1)
        self.factors.append(REFERENCE_S / (t1 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        total = 0.0
        self._cumulative = [0.0]
        for k in range(1, len(self.times)):
            total += (self.starts[k] - self.times[k - 1]) * self.factors[k]
            self._cumulative.append(total)

    def virtual(self, t: float) -> float:
        """Reference-speed time elapsed from the end of the first sample to
        ``t``, for any ``t`` taken outside the samples; each sample's factor
        applies to the interval that ends where it starts, the samples' own
        time counts for nothing, and the outermost factors extend beyond
        the samples."""
        times, cum = self.times, self._cumulative
        if not times:
            return t
        k = bisect_right(times, t)
        if k == 0:
            return (t - self.starts[0]) * self.factors[0]
        if k == len(times):
            return cum[-1] + (t - times[-1]) * self.factors[-1]
        return cum[k - 1] + (t - times[k - 1]) * self.factors[k]

    def scaled(self, t0: float, t1: float) -> float:
        return self.virtual(t1) - self.virtual(t0)
