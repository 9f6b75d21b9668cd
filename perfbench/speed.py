"""The machine's current speed, for timing on a reference scale.

On a machine shared with other tenants, the speed of the same Python code
drifts by tens of percent from one second to the next.  So a fixed piece
of the benchmark's own code (`reference`) is timed after every item and,
from a SIGALRM handler, every INTERVAL_S seconds while an item runs.  A
measured duration d becomes d * REFERENCE_S / r, with r the median
reference duration sampled during it and at the NEIGHBOURS samples on
each side: the seconds the work would take at the speed where the
reference takes REFERENCE_S.  Time spent sampling is left out of every
measured duration.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1e-3  # about the reference's duration on the baseline machine
INTERVAL_S = 0.05
NEIGHBOURS = 4


def reference():
    """Fixed work of the kinds the program does: Fraction, modular power
    and dict operations."""
    x, table = Fraction(1, 3), {}
    for i in range(1, 100):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i * i + 1)
        table[i % 17] = pow(i, 65537, 1000003)
    return x, table


def reference_scale() -> float:
    """REFERENCE_S over the median of seven reference durations timed now."""
    durations = []
    for _ in range(7):
        start = time.perf_counter()
        reference()
        durations.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(durations)


class SpeedProbe:
    """Samples the reference on demand and on a wall-clock timer."""

    def __init__(self):
        self.times: list[float] = []  # start of each sample, ascending
        self.durations: list[float] = []
        self.paused = [0.0]  # total time spent sampling, read by the tracer
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired during a sample taken on demand
            return
        self._busy = True
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.times.append(start)
        self.durations.append(took)
        self.paused[0] += took
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):  # let the interpreter specialise the reference
            reference()
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference sampled within [start, end]
        or among the NEIGHBOURS samples on either side."""
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        near = self.durations[max(0, first - NEIGHBOURS) : last + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)
