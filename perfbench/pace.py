"""Pacing: the benchmark's times in seconds of a fixed reference speed.

The 2-vCPU Xeon host the benchmark was defined on changes speed by up to 2x
from one few-second spell to the next: a fixed 30 000-step Python loop took
between 73 and 150 ms within one minute, a process's CPU time moved with its
wall time, and the host steal counter stayed at zero.  Raw times of two runs
of the same code therefore differ by more than any useful bound (the raw task
time of the ``closure`` workload ranged from 14 to 22 s over ten runs).

A `Pacer` runs `reference_loop`, a fixed pure-Python loop that calls no
library code, when it starts, every ``INTERVAL_S`` seconds from a ``SIGALRM``
timer, and at each `mark`.  The stretch of time between two loops is scaled
by ``REFERENCE_S`` over the mean duration of the two loops around it, which
gives that stretch in seconds at the reference speed; the loops' own time is
left out.  A library change that does less work shortens the stretches and so
the paced time, while a slow spell of the host stretches the work and the
loops alike and leaves the paced time as it was.  Eight processes of the
``deflation`` workload took from 12.9 to 16.1 s raw, and their paced times
were within 5.4% of each other.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array

INTERVAL_S = 0.1
# the loop's duration on the defining host in its fast spells, so that paced
# seconds are close to the raw seconds of that host at its best
REFERENCE_S = 0.0015

_PERM = tuple(range(64))


def reference_loop() -> float:
    """Duration of a fixed mix of tuple slicing, dict updates and frozenset
    building, the operations the library's group code is made of.  The
    collector is paused for the loop: its allocations would otherwise trigger
    collections of the workload's objects and time those instead."""
    clock = time.monotonic
    enabled = gc.isenabled()
    gc.disable()
    t = clock()
    seen: dict = {}
    for i in range(400):
        r = i % 64
        p = _PERM[r:] + _PERM[:r]
        k = tuple(p[j] for j in _PERM[:16])
        seen[k] = seen.get(k, 0) + 1
        len(frozenset(k[:8]))
    d = clock() - t
    if enabled:
        gc.enable()
    return d


class Pacer:
    """Reference loops at known times; `paced` converts the time between two
    of them.  ``started`` is the ``time.monotonic()`` at which the measured
    span began (for a child process, just before its parent started it); the
    stretch from there to the first loop is scaled by that loop alone."""

    def __init__(self, started: float):
        self.started = started
        self.begin = array("d")  # loop start times
        self.dur = array("d")  # loop durations
        self._busy = False
        reference_loop()  # warm the interpreter's specialised bytecode
        self._loop()

    def _loop(self) -> int:
        self._busy = True
        t = time.monotonic()
        self.dur.append(reference_loop())
        self.begin.append(t)
        index = len(self.dur) - 1
        self._busy = False
        return index

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._loop()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        """Run a loop now and return its index."""
        return self._loop()

    def paced(self, first: int, last: int) -> float:
        """Reference seconds from the end of loop ``first`` to the start of
        loop ``last``; ``first = -1`` starts at ``started``."""
        begin, dur = self.begin, self.dur
        total = 0.0
        if first < 0:
            total += (begin[0] - self.started) * REFERENCE_S / dur[0]
            first = 0
        for i in range(first, last):
            stretch = begin[i + 1] - begin[i] - dur[i]
            total += stretch * REFERENCE_S / ((dur[i] + dur[i + 1]) / 2)
        return total

    def raw(self, first: int, last: int) -> float:
        """Seconds of the same interval, loops included, unscaled."""
        start = self.started if first < 0 else self.begin[first] + self.dur[first]
        return self.begin[last] - start
