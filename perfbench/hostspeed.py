"""The host's speed, sampled while a repetition runs.

The benchmark shares its cores with other tenants of the machine, and
the speed a Python process gets from them moves between levels (on a
shared 2-vCPU VM: about 1.5x apart, switching every few seconds, with
tens of seconds in one level at times).  A run's median cannot average
that away, so stock timings are reported at a reference speed: while a
repetition runs, an interval timer interrupts it every
:data:`INTERVAL_S` of wall time to time a fixed reference loop, and
each timed interval is divided by the *slowdown* around it, the mean
loop time near the interval over :data:`REFERENCE_S`.

The loop is integer arithmetic on local variables: it allocates no
object the cyclic GC tracks (so it never triggers a collection of the
program's heap) and touches a few cache lines, so a program that gets
slower does not slow the loop.  It costs under 1% of the repetition.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

#: wall seconds between samples
INTERVAL_S = 0.02
#: iterations of the reference loop run before timing it, which bring
#: its code and data back into the caches the program evicted them from
WARM_UP = 100
#: iterations of the reference loop timed
ITERATIONS = 400
#: seconds the timed loop takes at reference speed: a typical time
#: inside a repetition on the host the bounds were set on (Python 3.11,
#: shared 2-vCPU VM)
REFERENCE_S = 70e-6
#: a sample this many times the median was cut by a preemption or an
#: interrupt, not slowed along with the program, and is left out
INTERRUPTED = 3.0
#: samples this many seconds either side of an interval count for it,
#: so an interval shorter than the sampling period still has some
PAD_S = 0.05


def reference_loop(iterations: int = ITERATIONS) -> int:
    """Fixed work: a linear congruential sequence, ints only."""
    x = 1
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class HostSpeed:
    """Samples the reference loop on SIGALRM inside a ``with`` block."""

    def __init__(self) -> None:
        self.times = array("d")
        self.durations = array("d")
        self._previous = None
        self._kept: list[tuple[float, float]] | None = None

    def _sample(self, _signum, _frame) -> None:
        reference_loop(WARM_UP)
        started = perf_counter()
        reference_loop()
        self.durations.append(perf_counter() - started)
        self.times.append(started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean loop time within :data:`PAD_S` of ``[start, end]`` over
        the reference time; over the whole block when no sample lies
        that near, and 1.0 with no sample at all."""
        if self._kept is None:
            limit = INTERRUPTED * statistics.median(self.durations or [0])
            self._kept = [(t, d) for t, d in zip(self.times, self.durations)
                          if d <= limit]
        kept = self._kept
        if not kept:
            return 1.0
        lo = bisect_left(kept, (start - PAD_S,))
        hi = bisect_right(kept, (end + PAD_S,))
        near = kept[lo:hi] or kept
        return statistics.fmean(d for _, d in near) / REFERENCE_S

    def scaled(self, interval: tuple[float, float]) -> float:
        """``interval``'s length in seconds at reference speed."""
        start, end = interval
        return (end - start) / self.slowdown(start, end)

