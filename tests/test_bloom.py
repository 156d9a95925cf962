"""Unit tests for the Bloom filter.

``WordListBloom`` is the representation ``src/`` shipped until issue 19
-- a list of 64-bit words probed by shift and mask -- kept here as the
oracle the byte-vector filter is compared against, operation for
operation and byte for byte.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.bloom import (
    BloomFilter,
    optimal_bits,
    optimal_hashes,
)
from repro.filters.digest import Digest

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    """One splitmix64 round: the oracle's own copy of the mix, written
    apart from ``repro.filters.bloom._mix``, which runs it on a plain
    64-bit int for a probe and on packed 128-bit lanes for
    ``BloomFilter.add_many``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class WordListBloom:
    """Reference filter: same hash family, bits in a list of u64 words."""

    def __init__(self, n_bits, n_hashes, salt=0):
        self.n_bits = ((n_bits + 63) // 64) * 64
        self.n_hashes = n_hashes
        self.salt = salt & _MASK64
        self.words = [0] * (self.n_bits // 64)

    def bit_positions(self, key):
        h1 = _splitmix64(key ^ self.salt)
        h2 = _splitmix64(h1) | 1
        out = []
        for _ in range(self.n_hashes):
            out.append(h1 % self.n_bits)
            h1 = (h1 + h2) & _MASK64
        return out

    def add(self, key):
        for pos in self.bit_positions(key):
            self.words[pos >> 6] |= 1 << (pos & 63)

    def __contains__(self, key):
        return self.test_snapshot(self.words, key)

    def snapshot(self):
        return tuple(self.words)

    def test_snapshot(self, words, key):
        return all(
            (words[pos >> 6] >> (pos & 63)) & 1
            for pos in self.bit_positions(key)
        )

    @property
    def set_bits(self):
        return sum(bin(w).count("1") for w in self.words)

    def union(self, other):
        out = WordListBloom(self.n_bits, self.n_hashes, self.salt)
        out.words = [a | b for a, b in zip(self.words, other.words)]
        return out

    def clear(self):
        self.words = [0] * len(self.words)

    def packed(self):
        """The wire form the word list always had."""
        return struct.pack(f"<{len(self.words)}Q", *self.words)


geometries = st.tuples(
    st.integers(1, 4096), st.integers(1, 8), st.integers(0, 2 ** 70)
)
key_lists = st.lists(st.integers(0, 2 ** 40), max_size=60)


class TestAgainstTheWordListOracle:
    @given(geometries, key_lists, key_lists, key_lists)
    @settings(max_examples=200)
    def test_every_operation_agrees(self, geometry, first, second, probes):
        n_bits, n_hashes, salt = geometry
        bf = BloomFilter(n_bits, n_hashes, salt=salt)
        ref = WordListBloom(n_bits, n_hashes, salt=salt)
        assert bf.n_bits == ref.n_bits
        for k in first:
            bf.add(k)
            ref.add(k)
        snap, ref_snap = bf.snapshot(), ref.snapshot()
        assert snap == ref.packed() and type(snap) is bytes
        for k in second:  # the snapshots must not move with these
            bf.add(k)
            ref.add(k)
        assert bf.snapshot() == ref.packed()
        assert bf.set_bits == ref.set_bits
        for k in first + second + probes:
            assert (k in bf) == (k in ref)
            assert bf.test_snapshot(snap, k) == ref.test_snapshot(ref_snap, k)
        assert all(k in bf for k in first + second)  # no false negatives
        bf.clear()
        ref.clear()
        assert bf.snapshot() == ref.packed() == bytes(bf.n_bits // 8)
        assert bf.set_bits == 0 and not any(k in bf for k in probes)

    @given(geometries, key_lists, key_lists)
    @settings(max_examples=100)
    def test_union_agrees(self, geometry, left, right):
        n_bits, n_hashes, salt = geometry
        a, b = (BloomFilter(n_bits, n_hashes, salt=salt) for _ in "ab")
        ra, rb = (WordListBloom(n_bits, n_hashes, salt=salt) for _ in "ab")
        for k in left:
            a.add(k)
            ra.add(k)
        for k in right:
            b.add(k)
            rb.add(k)
        u, ru = a | b, ra.union(rb)
        assert u.snapshot() == ru.packed()
        assert u.set_bits == ru.set_bits
        assert u.n_items == len(left) + len(right)
        assert all(k in u for k in left + right)

    @given(geometries, st.integers(0, 2 ** 40))
    def test_positions_name_the_oracle_s_bits(self, geometry, key):
        """Bit ``p`` is byte ``p >> 3``, mask ``1 << (p & 7)`` -- which is
        where little-endian u64 word ``p >> 6`` keeps its bit ``p & 63``."""
        n_bits, n_hashes, salt = geometry
        bf = BloomFilter(n_bits, n_hashes, salt=salt)
        ref = WordListBloom(n_bits, n_hashes, salt=salt)
        pos = bf.positions(key)
        assert [i * 8 + m.bit_length() - 1 for i, m in pos] == \
            ref.bit_positions(key)
        assert bf.positions(key) is pos  # cached: hashed once


@st.composite
def batches(draw):
    """A batch of keys for ``add_many``: sizes around one packed pass
    (256 lanes) and past it, magnitudes up to ``2 ** 70`` (the packed
    path hashes a key's low 64 bits, as the oracle does), a quarter of
    them repeats."""
    n = draw(st.sampled_from((0, 1, 2, 127, 128, 129)) | st.integers(250, 600))
    pool = draw(st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=16))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return [
        rng.choice(pool) if rng.random() < 0.25
        else rng.getrandbits(70) >> rng.randrange(70)
        for _ in range(n)
    ]


class TestPackedAddMany:
    """``add_many`` hashes keys side by side in packed ints: it must set
    the oracle's bits byte for byte, and the bits ``add`` sets key by
    key, at every hash count, and count every key, repeats included."""

    @pytest.mark.parametrize("n_hashes", range(1, 9))
    @given(n_bits=st.integers(1, 4096), salt=st.integers(0, 2 ** 70),
           keys=batches())
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_matches_the_oracle_and_add(self, n_hashes, n_bits, salt, keys):
        packed = BloomFilter(n_bits, n_hashes, salt=salt)
        single = BloomFilter(n_bits, n_hashes, salt=salt)
        ref = WordListBloom(n_bits, n_hashes, salt=salt)
        cut = len(keys) // 3  # the second call ors into set bits
        packed.add_many(iter(keys[:cut]))  # any iterable, read once
        packed.add_many(keys[cut:])
        for k in keys:
            single.add(k)
            ref.add(k)
        assert packed.snapshot() == single.snapshot() == ref.packed()
        assert packed.n_items == single.n_items == len(keys)
        assert not packed.pos_cache and not single.pos_cache

    @given(keys=batches(), salt=st.integers(0, 2 ** 70))
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_a_digest_versions_every_key(self, keys, salt):
        batch = Digest(max(16, len(keys)), salt=salt)
        single = Digest.like(batch)
        batch.add_many(keys)
        for k in keys:
            single.add(k)
        assert batch.version == single.version == len(keys)
        assert batch.bloom.n_items == len(keys)
        assert batch.snapshot() == single.snapshot()
        assert not batch.bloom.pos_cache


class TestSizing:
    def test_optimal_bits_monotone_in_capacity(self):
        assert optimal_bits(1000, 0.01) > optimal_bits(100, 0.01)

    def test_optimal_bits_monotone_in_fp(self):
        assert optimal_bits(100, 0.001) > optimal_bits(100, 0.1)

    def test_optimal_bits_word_aligned(self):
        assert optimal_bits(100, 0.01) % 64 == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            optimal_bits(0, 0.01)
        with pytest.raises(ValueError):
            optimal_bits(10, 0.0)
        with pytest.raises(ValueError):
            optimal_bits(10, 1.0)
        with pytest.raises(ValueError):
            optimal_hashes(100, 0)


class TestMembership:
    def test_no_false_negatives(self):
        bf = BloomFilter.with_capacity(200, fp_rate=0.01)
        keys = list(range(0, 2000, 10))
        bf.add_many(keys)
        for k in keys:
            assert k in bf

    def test_empty_contains_nothing(self):
        bf = BloomFilter.with_capacity(100)
        assert all(k not in bf for k in range(100))

    def test_fp_rate_reasonable(self):
        bf = BloomFilter.with_capacity(500, fp_rate=0.01)
        bf.add_many(range(500))
        fps = sum(1 for k in range(10_000, 30_000) if k in bf)
        assert fps / 20_000 < 0.05  # generous bound on the 1% design point

    def test_clear(self):
        bf = BloomFilter.with_capacity(100)
        bf.add(7)
        bf.clear()
        assert 7 not in bf
        assert bf.n_items == 0


class TestSnapshot:
    def test_snapshot_immutable_under_later_adds(self):
        bf = BloomFilter.with_capacity(100)
        bf.add(1)
        snap = bf.snapshot()
        bf.add(2)
        assert bf.test_snapshot(snap, 1)
        assert not bf.test_snapshot(snap, 2)
        assert 2 in bf

    def test_cross_filter_snapshot_evaluation(self):
        """Same-geometry filters can evaluate each other's snapshots."""
        a = BloomFilter(512, 5, salt=9)
        b = BloomFilter(512, 5, salt=9)
        b.add(42)
        assert a.test_snapshot(b.snapshot(), 42)
        assert not a.test_snapshot(b.snapshot(), 43)


class TestPositionCache:
    def test_shared_cache(self):
        a = BloomFilter(512, 5, salt=9)
        b = BloomFilter(512, 5, salt=9)
        b.share_cache_with(a)
        a.add(10)
        b.add(11)
        assert 10 in a and 11 in b
        assert a.pos_cache is b.pos_cache
        assert 10 in a.pos_cache and 11 in a.pos_cache

    def test_one_pair_object_per_bit_across_keys_and_sharers(self):
        """Keys are many, bits are few: every probe that names a bit
        names it through the same ``(byte index, bit mask)`` tuple."""
        a = BloomFilter(128, 8, salt=9)
        b = BloomFilter(128, 8, salt=9)
        b.share_cache_with(a)
        seen = {}
        for key in range(200):
            for pair in (a if key % 2 else b).positions(key):
                assert seen.setdefault(pair, pair) is pair
        assert len(seen) <= 128

    def test_share_rejects_geometry_mismatch(self):
        a = BloomFilter(512, 5)
        b = BloomFilter(512, 4)
        with pytest.raises(ValueError):
            b.share_cache_with(a)


class TestUnion:
    def test_union_contains_both(self):
        a = BloomFilter(512, 5, salt=1)
        b = BloomFilter(512, 5, salt=1)
        a.add(1)
        b.add(2)
        u = a | b
        assert 1 in u and 2 in u

    def test_union_rejects_mismatch(self):
        a = BloomFilter(512, 5, salt=1)
        b = BloomFilter(512, 5, salt=2)
        with pytest.raises(ValueError):
            a | b


class TestDiagnostics:
    def test_fill_ratio_grows(self):
        bf = BloomFilter.with_capacity(100)
        assert bf.fill_ratio == 0.0
        bf.add_many(range(50))
        assert 0.0 < bf.fill_ratio < 1.0

    def test_expected_fp_rate_bounds(self):
        bf = BloomFilter.with_capacity(100, fp_rate=0.01)
        bf.add_many(range(100))
        assert 0.0 < bf.expected_fp_rate() < 0.1

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)


class TestBitCounts:
    def test_set_bits_counts_ones(self):
        bf = BloomFilter(128, 3, salt=1)
        assert bf.set_bits == 0
        bf.add(42)
        assert 0 < bf.set_bits <= 3
        assert bf.fill_ratio == bf.set_bits / bf.n_bits

    def test_fill_ratio_from_words_not_items(self):
        """fill_ratio reflects distinct set bits, so re-adding the same
        key (which double-counts n_items) cannot inflate it."""
        bf = BloomFilter(128, 3, salt=1)
        bf.add(7)
        ratio = bf.fill_ratio
        bf.add(7)
        assert bf.n_items == 2  # insertion count, not distinct keys
        assert bf.fill_ratio == ratio

    def test_union_n_items_is_upper_bound(self):
        a = BloomFilter(128, 3, salt=1)
        b = BloomFilter(128, 3, salt=1)
        a.add(5)
        b.add(5)  # same key on both sides
        u = a | b
        assert u.n_items == 2  # documented upper bound on distinct keys
        assert u.set_bits == a.set_bits  # identical bit pattern
