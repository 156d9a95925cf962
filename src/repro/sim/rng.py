"""Random-number streams for the simulation.

Every stochastic component draws from its own named stream (derived
deterministically from a master seed) so that, e.g., changing the
service-time distribution does not perturb the query workload -- the
standard common-random-numbers discipline for simulation experiments.

:class:`ZipfSampler` implements the bounded Zipf law the paper uses for
destination popularity (Zipf 1949): ``P(rank=i) ~ 1/i**alpha`` over a
finite population, sampled in O(log n) by inverse-CDF binary search
over precomputed cumulative weights: one ``array('d')`` and
:func:`bisect.bisect_left`, standard library only.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Optional


def _stable_hash(name: str) -> int:
    """Process-independent 32-bit hash of a stream name.

    ``hash(str)`` is salted per interpreter process (PYTHONHASHSEED), so
    it must never feed a seed -- results would differ across runs.
    """
    return zlib.crc32(name.encode("utf-8"))


class RngStreams:
    """A family of independent named RNG streams under one master seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created deterministically on first use)."""
        s = self._streams.get(name)
        if s is None:
            sub = _stable_hash(name) ^ (self.master_seed * 0x9E3779B1)
            s = random.Random(sub & 0xFFFFFFFFFFFF)
            self._streams[name] = s
        return s

    def spawn(self, name: str) -> "RngStreams":
        """A child family whose master seed derives from ``name``."""
        sub = _stable_hash(name) ^ (self.master_seed * 0x85EBCA6B)
        return RngStreams(sub & 0xFFFFFFFFFFFF)


class ZipfSampler:
    """Bounded Zipf(alpha) sampler over ``n`` ranked items.

    ``sample()`` returns a *rank* in ``0..n-1`` (0 = most popular).  The
    caller owns the rank-to-item permutation, which is what the paper's
    "instantaneous random change in node popularity" reshuffles.

    ``alpha == 0`` degenerates to the uniform distribution.
    """

    __slots__ = ("n", "alpha", "_cdf")

    def __init__(self, n: int, alpha: float) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.n = n
        self.alpha = alpha
        self._cdf: Optional[array[float]] = None
        if alpha != 0.0:
            # generators end to end: the running sum and the normalised
            # CDF are the only two n-sized buffers ever alive
            if alpha == 1.0:
                weights = (1.0 / i for i in range(1, n + 1))
            else:
                weights = (float(i) ** -alpha for i in range(1, n + 1))
            sums = array("d", accumulate(weights))
            total = sums[-1]
            self._cdf = array("d", (s / total for s in sums))

    def sample(self, rng: random.Random) -> int:
        """Draw one rank using ``rng`` for the underlying uniform."""
        if self._cdf is None:
            return rng.randrange(self.n)
        return bisect_left(self._cdf, rng.random())


def exponential(rng: random.Random, mean: float) -> float:
    """One draw from Exp(mean) -- service times, Poisson inter-arrivals."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    # rng.random() is in [0,1); guard the log(0) corner
    u = 1.0 - rng.random()
    return -mean * math.log(u)
