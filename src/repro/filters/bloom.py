"""A from-scratch Bloom filter over integer keys.

The bit vector is one contiguous ``bytearray``: bit ``p`` is byte
``p >> 3``, mask ``1 << (p & 7)``.  A key's probe is a tuple of
``(byte index, bit mask)`` pairs, cached the first time the key is
*probed* (an add stores none: most keys a fleet hosts are never
probed), so every membership test in the tree
is the loop ``for i, m in pos: if not vector[i] & m: ...`` --
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
independent hashes.  A probe or a single add hashes one key on a plain
int; :meth:`BloomFilter.add_many` hashes up to :data:`_LANES` keys side
by side in one packed int, through the same :func:`_mix`.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Dict, Iterable, List, Tuple, Union

_MASK64 = (1 << 64) - 1

#: keys per packed pass of :meth:`BloomFilter.add_many`: its ints are
#: 4 KiB, whatever the batch
_LANES = 256
#: a one in the low bit of each 128-bit lane
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
#: the low 64 bits of each lane: a pass of ``n`` keys uses the low ``n``
_LANE_MASK = _MASK64 * _ONES
#: splitmix64's increment in every lane; ``mask & _GOLDEN`` is the
#: increment in the lanes ``mask`` covers (and 0x9E37... on a plain int)
_GOLDEN = 0x9E3779B97F4A7C15 * _ONES
_BIG_ENDIAN = sys.byteorder == "big"


def _mix(x: int, mask: int) -> int:
    """One splitmix64 round (an avalanching 64-bit mix) on every lane
    of ``x``, ``mask`` its lanes' low 64 bits: the one place a key is
    hashed.  On a plain int (``mask == _MASK64``) this is the textbook
    round, its masks before each multiply no-ops; on a packed int they
    drop what a shift brought in from the lane above, so no carry or
    product leaves its 128-bit lane."""
    x = (x + (mask & _GOLDEN)) & mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


def _pack(keys: List[int]) -> int:
    """``keys`` masked to 64 bits, key ``j`` in the low half of 128-bit
    lane ``j`` of one int."""
    lanes = array("Q", bytes(16 * len(keys)))
    try:
        lanes[::2] = array("Q", keys)
    except OverflowError:  # a key >= 2**64: only its low 64 bits hash
        lanes[::2] = array("Q", [k & _MASK64 for k in keys])
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _unpack(x: int, n: int) -> "array[int]":
    """The low 64 bits of each of the ``n`` lanes of ``x``."""
    lanes = array("Q", x.to_bytes(16 * n, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes[::2]


#: a versioned snapshot as digests publish it and the wire carries it:
#: ``(version, vector)``
Snapshot = Tuple[int, bytes]
#: one key's probe: ``(byte index, bit mask)`` per hash
Positions = Tuple[Tuple[int, int], ...]

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
        # key -> probe, stored on a key's first probe and shared by
        # all same-geometry filters (the simulator probes the same node
        # ids against many digests); adds read it but never fill it
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
        """The ``(byte index, bit mask)`` pairs probed for ``key``:
        how every probe learns where a key's bits live.  The first probe
        of a key stores them in :attr:`pos_cache`; later probes, from
        any filter sharing it, read them back."""
        pos = self.pos_cache.get(key)
        if pos is None:
            pos = self.pos_cache[key] = self._hash(key)
        return pos

    def _hash(self, key: int) -> Positions:
        """``key``'s probe, computed and stored nowhere."""
        h1 = _mix(key ^ self._salt, _MASK64)
        h2 = _mix(h1, _MASK64) | 1  # odd step avoids short cycles
        m = self.n_bits
        pairs = self._pairs
        if not pairs:
            pairs.extend((p >> 3, 1 << (p & 7)) for p in range(m))
        out = []
        for _ in range(self.n_hashes):
            out.append(pairs[h1 % m])
            h1 = (h1 + h2) & _MASK64  # stepping by adds stays in 64 bits
        return tuple(out)

    @classmethod
    def with_capacity(
        cls, capacity: int, fp_rate: float = 0.01, salt: int = 0
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` items at the given FP rate."""
        m = optimal_bits(capacity, fp_rate)
        return cls(m, optimal_hashes(m, capacity), salt=salt)

    def add(self, key: int) -> None:
        """Insert an integer key (a cached probe is not hashed again)."""
        buf = self._buf
        for i, m in self.pos_cache.get(key) or self._hash(key):
            buf[i] |= m
        self.n_items += 1

    def add_many(self, keys: Iterable[int]) -> None:
        """Insert every key of ``keys`` (duplicates count), hashing
        :data:`_LANES` keys per packed pass; bit-identical to :meth:`add`
        in a loop, and, like it, storing no probe: most keys a server
        hosts are never probed, and the cache holds only what probes
        ask for.

        A pass packs its keys into one int, one 128-bit lane per key,
        and runs both mixes and the ``h1 + i * h2`` stepping on the
        whole int; each hash's lanes are then unpacked and their bits
        marked in ``bits``, one ASCII digit per bit, which is read back
        as one base-2 int and or-ed into the vector once per call."""
        batch = list(keys)
        if not batch:
            return
        m = self.n_bits
        salt = self._salt
        bits = bytearray(b"0") * m
        for lo in range(0, len(batch), _LANES):
            chunk = batch[lo:lo + _LANES]
            n = len(chunk)
            mask = _LANE_MASK >> (128 * (_LANES - n))
            ones = mask & _ONES
            h1 = _mix(_pack(chunk) ^ salt * ones, mask)
            h2 = _mix(h1, mask) | ones  # odd steps, as in _hash
            for _ in range(self.n_hashes):
                for h in _unpack(h1, n):
                    bits[h % m] = 49  # ord("1")
                h1 = (h1 + h2) & mask
        bits.reverse()  # bit 0 is the last digit
        buf = self._buf
        vec = int.from_bytes(buf, "little") | int(bits, 2)
        buf[:] = vec.to_bytes(len(buf), "little")
        self.n_items += len(batch)

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
        return bin(int.from_bytes(self._buf, "little")).count("1")

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
