"""How fast the host is running right now, and times scaled by it.

The sandboxes this benchmark runs in share their CPUs.  A process there
slows down by 1.0 to 1.8 times for seconds or minutes at a stretch, and
the level it returns to moves during an hour.  It is the CPU and the
memory system that slow, not the scheduler: process time follows wall
time.  Left alone, that moves every timing by tens of per cent between
two runs of the same code, which no regression bound survives.

So every timed stretch of the benchmark is bracketed by *quanta*: one
quantum is a fixed piece of pure-Python work, timed.  The mean quantum
around a stretch, over ``REF_QUANTUM_S``, is the host's slowdown during
it, and the stretch's time divided by that slowdown is what the stretch
would have taken on the reference host when quiet.  All end-to-end
times are such *reference seconds*; each run also prints its raw rate
and the slowdown it saw, so the wall-clock figure is never hidden.

A quantum is half integer arithmetic and half a walk in big strides
over an 8 MB buffer, because the simulator is slowed both ways (a busy
sibling thread, and neighbours evicting the shared cache) and either
half alone tracks it worse: over 40 ``sim_hotspot`` units in a bad hour
the unit times correlated 0.61 with an arithmetic loop and 0.83 with a
walk, and scaling by both left the least spread.  The scaling stays
approximate -- a few per cent of spread remain, see README.

The reference is one constant, so on another kind of machine every
value shifts by one factor -- on both sides of any comparison alike.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter
from typing import Any, List

ARITHMETIC_ITERS = 10_000
WALK_STEPS = 3_000
_BUFFER = bytearray(8 << 20)  # larger than a core's own caches
_STRIDE = 40_503 * 64 + 64  # far apart, a new cache line and page each step
#: seconds one quantum takes on the sandbox this was sized on (2 vCPUs,
#: Xeon @ 2.1 GHz, CPython 3.11) when that is quiet
REF_QUANTUM_S = 0.0008


def quantum(cursor: int = 0) -> float:
    """Time one fixed piece of work; seconds.  ``cursor`` is where the
    walk starts, so that successive quanta touch different lines."""
    size = len(_BUFFER)
    buffer = _BUFFER
    j = cursor % size
    t0 = perf_counter()
    acc = 0
    for i in range(ARITHMETIC_ITERS):
        acc += i * i
    for _ in range(WALK_STEPS):
        j = (j + _STRIDE) % size
        acc += buffer[j]
    return perf_counter() - t0


class HostSpeed:
    """Running record of quanta; ``slowdown`` brackets a stretch."""

    def __init__(self) -> None:
        self._taken = 0
        self.seen: List[float] = [self._quantum()]
        self._last = self.seen[0]

    def _quantum(self) -> float:
        self._taken += 1
        return quantum(self._taken * WALK_STEPS * _STRIDE)

    def slowdown(self, n: int = 1) -> float:
        """Run ``n`` quanta and return the host's slowdown over the
        stretch since the previous call: the mean of that call's quanta
        and of these, over the reference."""
        first = len(self.seen)
        for _ in range(n):
            self.seen.append(self._quantum())
        level = sum(self.seen[first:]) / n
        bracket = 0.5 * (self._last + level)
        self._last = level
        return bracket / REF_QUANTUM_S

    def watch(self, every: float = 0.05) -> "_Watch":
        """Context manager for a stretch this process spends *waiting*
        (the sharded run: the work is in the worker processes, and a
        few seconds long).  A thread takes a quantum every ``every``
        seconds meanwhile -- 2 % of one CPU -- and ``.slowdown``
        afterwards is the median of them over the reference.  Quanta at
        the two ends of such a stretch say too little about its middle.
        """
        return _Watch(self, every)

    def typical(self) -> float:
        """Median slowdown over every quantum of the run."""
        return statistics.median(self.seen) / REF_QUANTUM_S


class _Watch:
    def __init__(self, speed: HostSpeed, every: float) -> None:
        self._speed, self._every = speed, every
        self._quanta: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self.slowdown = 0.0

    def _sample(self) -> None:
        while not self._stop.wait(self._every):
            self._quanta.append(self._speed._quantum())

    def __enter__(self) -> "_Watch":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._speed.seen += self._quanta
        # a stretch shorter than one period: fall back on its two ends
        self.slowdown = (
            statistics.median(self._quanta) / REF_QUANTUM_S
            if self._quanta else self._speed.slowdown()
        )
