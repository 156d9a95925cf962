"""A from-scratch Bloom filter over integer keys.

The bit vector is one contiguous ``bytearray``: bit ``p`` is byte
``p >> 3``, mask ``1 << (p & 7)``.  A key's probe is cached as a tuple
of ``(byte index, bit mask)`` pairs, so every membership test in the
tree is the loop ``for i, m in pos: if not vector[i] & m: ...`` --
indexing ``bytes`` yields an interned small int, so a test touches one
object, allocates nothing and costs O(k) at every filter size (a Python
big-int vector makes probe and cached mask O(n_bits); DESIGN.md
section 10.5 has the measurements).

A *snapshot* is ``bytes(vector)``: immutable, so every message and
remote directory holding it can share one object, and already in wire
layout -- byte ``j`` is byte ``j`` of the vector's little-endian u64
words.

Hash family: double hashing over two splitmix64-style mixes,
``h_i(x) = (h1(x) + i * h2(x)) mod m`` -- the Kirsch-Mitzenmacher
construction, which preserves the asymptotic false-positive rate of k
independent hashes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple, Union

_MASK64 = (1 << 64) - 1

#: a versioned snapshot as digests publish it and the wire carries it:
#: ``(version, vector)``
Snapshot = Tuple[int, bytes]
#: one key's probe: ``(byte index, bit mask)`` per hash
Positions = Tuple[Tuple[int, int], ...]

try:
    _popcount = int.bit_count  # Python >= 3.10: native popcount
except AttributeError:  # pragma: no cover - exercised on Python 3.9
    def _popcount(w: int) -> int:
        return bin(w).count("1")


def optimal_bits(capacity: int, fp_rate: float) -> int:
    """Bit count m for a target false-positive rate at ``capacity`` items."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if not 0.0 < fp_rate < 1.0:
        raise ValueError("fp_rate must be in (0, 1)")
    m = -capacity * math.log(fp_rate) / (math.log(2) ** 2)
    return max(64, int(math.ceil(m / 64.0)) * 64)


def optimal_hashes(bits: int, capacity: int) -> int:
    """Hash count k minimising the false-positive rate."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    k = bits / capacity * math.log(2)
    return max(1, min(8, int(round(k))))


class BloomFilter:
    """Bloom filter over non-negative integer keys.

    >>> bf = BloomFilter.with_capacity(100, fp_rate=0.01)
    >>> bf.add(42)
    >>> 42 in bf
    True
    """

    __slots__ = ("n_bits", "n_hashes", "_buf", "n_items", "_salt",
                 "pos_cache", "_pairs")

    def __init__(self, n_bits: int, n_hashes: int, salt: int = 0) -> None:
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")
        # whole 64-bit words: the wire counts a vector in u64s
        self.n_bits = ((n_bits + 63) // 64) * 64
        self.n_hashes = n_hashes
        self._buf = bytearray(self.n_bits // 8)
        self.n_items = 0
        self._salt = salt & _MASK64
        # key -> probe; share one dict across all same-geometry filters
        # (the simulator probes the same node ids against many digests,
        # so hashing each id once ever pays off)
        self.pos_cache: Dict[int, Positions] = {}
        # bit -> its one (byte index, bit mask) object, filled on the
        # first miss and shared with the cache: keys are many, bits few
        self._pairs: List[Tuple[int, int]] = []

    @property
    def geometry(self) -> Tuple[int, int, int]:
        """``(n_bits, n_hashes, salt)``: what cross-evaluable filters share."""
        return (self.n_bits, self.n_hashes, self._salt)

    def share_cache_with(self, other: "BloomFilter") -> None:
        """Share the position cache of ``other`` (requires same geometry)."""
        if self.geometry != other.geometry:
            raise ValueError("geometry mismatch; cannot share position cache")
        self.pos_cache = other.pos_cache
        self._pairs = other._pairs

    def positions(self, key: int) -> Positions:
        """The cached ``(byte index, bit mask)`` pairs probed for ``key``:
        how every caller learns where a key's bits live."""
        pos = self.pos_cache.get(key)
        if pos is None:
            # two splitmix64 rounds (an avalanching 64-bit mix), written
            # out: the one place a key is hashed, once per process
            x = ((key ^ self._salt) + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            h1 = x ^ (x >> 31)
            x = (h1 + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            h2 = (x ^ (x >> 31)) | 1  # odd step avoids short cycles
            m = self.n_bits
            pairs = self._pairs
            if not pairs:
                pairs.extend((p >> 3, 1 << (p & 7)) for p in range(m))
            out = []
            for _ in range(self.n_hashes):
                out.append(pairs[h1 % m])
                h1 = (h1 + h2) & _MASK64  # stepping by adds stays in 64 bits
            pos = self.pos_cache[key] = tuple(out)
        return pos

    @classmethod
    def with_capacity(
        cls, capacity: int, fp_rate: float = 0.01, salt: int = 0
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` items at the given FP rate."""
        m = optimal_bits(capacity, fp_rate)
        return cls(m, optimal_hashes(m, capacity), salt=salt)

    def add(self, key: int) -> None:
        """Insert an integer key."""
        self.add_many((key,))

    def add_many(self, keys: Iterable[int]) -> None:
        """Insert every key of ``keys`` (duplicates count): the one
        bit-setting loop, so a batch costs one call, not one per key."""
        buf = self._buf
        cached = self.pos_cache.get
        positions = self.positions
        n = 0
        for key in keys:
            for i, m in cached(key) or positions(key):
                buf[i] |= m
            n += 1
        self.n_items += n

    update = add_many

    def __contains__(self, key: int) -> bool:
        return self.test_snapshot(self._buf, key)

    def clear(self) -> None:
        """Remove all items (Bloom filters do not support point deletion)."""
        self._buf = bytearray(self.n_bits // 8)
        self.n_items = 0

    def snapshot(self) -> bytes:
        """An immutable copy of the bit vector (``n_bits // 8`` bytes)."""
        return bytes(self._buf)

    def test_snapshot(self, vector: Union[bytes, bytearray], key: int) -> bool:
        """Test ``key`` against a same-geometry :meth:`snapshot`."""
        for i, m in self.positions(key):
            if not vector[i] & m:
                return False
        return True

    @property
    def set_bits(self) -> int:
        """Number of bits currently set."""
        return _popcount(int.from_bytes(self._buf, "little"))

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set (saturation indicator)."""
        return self.set_bits / self.n_bits

    def expected_fp_rate(self) -> float:
        """FP rate estimate from the actual fill ratio."""
        return self.fill_ratio**self.n_hashes

    def __or__(self, other: "BloomFilter") -> "BloomFilter":
        """Union of two filters with identical geometry.

        ``n_items`` counts insertions, not distinct keys, so the
        union's count is the sum of both sides' insertion counts -- an
        upper bound on the number of distinct keys it holds (keys added
        to both sides are counted twice; :attr:`set_bits` /
        :attr:`fill_ratio` reflect the true saturation).
        """
        if self.geometry != other.geometry:
            raise ValueError("cannot union Bloom filters of differing geometry")
        out = BloomFilter(self.n_bits, self.n_hashes, salt=self._salt)
        out._buf = bytearray(a | b for a, b in zip(self._buf, other._buf))
        out.n_items = self.n_items + other.n_items
        return out
