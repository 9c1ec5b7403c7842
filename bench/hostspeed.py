"""Wall time scaled to a reference host speed.

The virtual machines the benchmark runs on share their cores, and their
speed drifts by tens of percent within a minute; a fixed op's wall time
drifts with it.  ``HostClock`` times a fixed pure-Python loop (the
*calibration*, independent of the library) every ``period`` seconds of the
measured phase, from a ``SIGALRM`` handler while an op runs and between ops
otherwise.  ``scaled(start, end)`` then weights each stretch of wall time
between two calibrations by ``REFERENCE_S`` over their mean duration, and
leaves the calibrations out.  The result is the interval's length in
seconds of a host on which the calibration takes ``REFERENCE_S``: the
host's drift cancels, while a change in the library's speed shows in full.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
from time import perf_counter

#: Seconds one calibration takes on the reference host.
REFERENCE_S = 0.002
#: Loop iterations of one calibration.
SPIN_ITERS = 8000


def spin(n: int = SPIN_ITERS) -> float:
    """The calibration: float math, dict and tuple work of the interpreter."""
    s = 0.0
    d = {}
    for i in range(n):
        s += math.sin(i * 1e-3) * 1.0001
        d[i & 63] = s
        pair = (i, s)
        s += pair[0] * 1e-9
    return s


class HostClock:
    """Calibrations in one process, and wall intervals scaled by them."""

    def __init__(self, period: float = 0.1):
        self.period = period
        #: ``(start, end)`` of every calibration, in ``perf_counter`` time.
        self.marks: list[tuple[float, float]] = []
        self._busy = False
        self._starts: list[float] = []
        self._durs: list[float] = []

    def tick(self, *_) -> None:
        """Run one calibration and record when it ran (not when the timer
        fires during another)."""
        if self._busy:
            return
        self._busy = True
        a = perf_counter()
        spin()
        self.marks.append((a, perf_counter()))
        self._busy = False

    def maybe_tick(self) -> None:
        """Calibrate if the last calibration is ``period`` seconds old."""
        if not self.marks or perf_counter() - self.marks[-1][1] >= self.period:
            self.tick()

    @contextlib.contextmanager
    def interrupting(self):
        """Calibrate at the start, every ``period`` seconds from a
        ``SIGALRM`` handler, and at the end."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` outside calibrations, each stretch
        between calibrations ``k`` and ``k + 1`` scaled by ``REFERENCE_S``
        over their mean duration (before the first and after the last,
        by that one's duration)."""
        marks = self.marks
        if not marks:
            raise RuntimeError("no calibration recorded")
        if len(self._starts) != len(marks):
            self._starts = [a for a, _ in marks]
            self._durs = [b - a for a, b in marks]
        durs = self._durs
        # Stretch k runs from the end of calibration k - 1 to the start of
        # calibration k; stretch 0 from -inf, stretch len(marks) to +inf.
        k = bisect.bisect_right(self._starts, start)
        total = 0.0
        while True:
            lo = marks[k - 1][1] if k else -math.inf
            hi = marks[k][0] if k < len(marks) else math.inf
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                dur = (durs[max(k - 1, 0)] + durs[min(k, len(marks) - 1)]) / 2
                total += overlap * REFERENCE_S / dur
            if hi >= end:
                return total
            k += 1
