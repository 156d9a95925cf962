"""Unit tests for inverse-mapping digests and the digest directory."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.filters.digest import Digest, DigestDirectory
from repro.namespace.generators import balanced_tree
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import unif_stream


@pytest.fixture
def digests():
    ref = Digest(capacity=64, owner_server=0)
    d1 = Digest(capacity=64, owner_server=1)
    d2 = Digest(capacity=64, owner_server=2)
    return ref, d1, d2


class TestDigest:
    def test_add_and_test(self, digests):
        ref, d1, _ = digests
        d1.add(5)
        assert 5 in d1
        assert 6 not in d1

    def test_version_increments(self, digests):
        _, d1, _ = digests
        v0 = d1.version
        d1.add(5)
        assert d1.version == v0 + 1

    def test_rebuild_removes(self, digests):
        _, d1, _ = digests
        d1.add(5)
        d1.add(6)
        d1.rebuild([6])
        assert 6 in d1
        assert 5 not in d1

    def test_snapshot_is_point_in_time(self, digests):
        ref, d1, _ = digests
        d1.add(5)
        snap = d1.snapshot()
        d1.add(7)
        assert ref.bloom.test_snapshot(snap[1], 5)
        assert not ref.bloom.test_snapshot(snap[1], 7)

    def test_snapshot_versioned(self, digests):
        _, d1, _ = digests
        v, _bits = d1.snapshot()
        d1.add(1)
        v2, _ = d1.snapshot()
        assert v2 > v


def ref_test(digest, snap, node):
    return digest.bloom.test_snapshot(snap[1], node)


class TestInterning:
    """One snapshot object per version (pins the cost, not the value:
    the parent commit built a fresh tuple of words on every call)."""

    def test_same_object_while_version_stands(self, digests):
        _, d1, _ = digests
        d1.add(5)
        snap = d1.snapshot()
        assert d1.snapshot() is snap
        assert snap == (d1.version, d1.bloom.snapshot())
        assert isinstance(snap[1], bytes)

    def test_new_object_after_every_mutation(self, digests):
        _, d1, _ = digests
        before = d1.snapshot()
        d1.add(5)
        added = d1.snapshot()
        d1.rebuild([6])
        rebuilt = d1.snapshot()
        assert before is not added and added is not rebuilt
        assert [s[0] for s in (before, added, rebuilt)] == [0, 1, 2]
        # a held snapshot is immutable: later mutations never show
        assert ref_test(d1, added, 5) and not ref_test(d1, added, 6)
        assert ref_test(d1, rebuilt, 6) and not ref_test(d1, rebuilt, 5)

    def test_like_shares_geometry_and_cache_but_no_state(self, digests):
        _, d1, _ = digests
        d1.add(5)
        twin = Digest.like(d1, owner_server=9)
        assert twin.owner_server == 9 and twin.version == 0
        assert 5 not in twin
        assert twin.bloom.geometry == d1.bloom.geometry
        assert twin.bloom.pos_cache is d1.bloom.pos_cache
        twin.add(6)
        assert ref_test(d1, twin.snapshot(), 6)
        assert ref_test(twin, d1.snapshot(), 5)
        assert 6 not in d1


    def test_a_run_stores_one_object_per_server_and_version(self):
        """After a 200-lookup serial run every directory that holds
        server ``s`` at version ``v`` holds the same tuple: distinct
        objects number the (server, version) pairs, not the stored
        entries (on the parent commit, one fresh tuple per entry)."""
        ns = balanced_tree(levels=7)
        system = build_system(
            ns, SystemConfig.replicated(n_servers=8, seed=5)
        )
        WorkloadDriver(system, unif_stream(100.0, 2.0, seed=5)).run()
        assert system.stats.n_completed >= 190
        stored = [
            (server, snap)
            for p in system.peers
            for server, snap in p.digest_dir._snaps.items()
        ]
        pairs = {(server, snap[0]) for server, snap in stored}
        assert len({id(snap) for _, snap in stored}) == len(pairs)
        assert len(stored) > 4 * len(pairs)  # the sharing is real
        issued = sum(p.digest.version + 1 for p in system.peers)
        assert len(pairs) <= issued
        for server, snap in stored:  # and still the sender's vector
            if snap[0] == system.peers[server].digest.version:
                assert snap is system.peers[server].digest.snapshot()


class TestDirectory:
    def test_observe_and_test(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(9)
        ddir.observe(1, d1.snapshot())
        assert ddir.test(1, 9) is True
        assert ddir.test(1, 10) is False
        assert ddir.test(99, 9) is None  # unknown server

    def test_observe_keeps_newest(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        new = d1.snapshot()
        d1_old_version = (0, new[1])
        assert ddir.observe(1, new)
        assert not ddir.observe(1, d1_old_version)  # older version rejected

    def test_bounded_evicts_stalest(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref, max_peers=1)
        d1.add(1)
        d2.add(2)
        d2.add(3)  # version 2 > version 1
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        assert ddir.get(1) is None
        assert ddir.get(2) is not None
        assert len(ddir) == 1

    def test_eviction_tie_goes_to_the_first_stalest_in_arrival_order(self):
        """The victim is the first entry in directory (arrival) order
        holding the lowest version -- the tie-break the fingerprints
        were recorded with."""
        ref = Digest(capacity=64)
        vector = ref.snapshot()[1]
        ddir = DigestDirectory(ref, max_peers=3)
        for server, version in ((7, 5), (3, 2), (9, 2)):
            ddir.observe(server, (version, vector))
        ddir.observe(1, (2, vector))  # full: 3 and 9 tie at version 2
        assert [s for s, _ in ddir.eligible_snaps(-1)] == [7, 9, 1]
        ddir.observe(4, (9, vector))  # 9 and 1 tie now; 9 arrived first
        assert [s for s, _ in ddir.eligible_snaps(-1)] == [7, 1, 4]

    def test_wrong_length_vector_is_refused_and_counted(self, digests):
        """A vector the fleet geometry's positions would index past the
        end of (or not cover) never enters the directory."""
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(9)
        good = d1.snapshot()
        assert ddir.observe(1, good)
        for vector in (b"", bytes(8), good[1] + bytes(8)):
            assert not ddir.observe(2, (10**9, vector))
            assert not ddir.observe(1, (10**9, vector))
        assert ddir.n_rejected == 6
        assert ddir.get(2) is None and ddir.get(1) is good
        assert ddir.test(1, 9) is True  # still probing the good one
        # a stale version returns before the length is even looked at
        assert not ddir.observe(1, (0, b""))
        assert ddir.n_rejected == 6

    def test_stale_snapshot_is_soft_state(self, digests):
        """A remote snapshot does not track later evictions -- exactly
        the soft-state staleness the protocol tolerates."""
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(5)
        ddir.observe(1, d1.snapshot())
        d1.rebuild([])  # server 1 evicted node 5
        assert 5 not in d1
        assert ddir.test(1, 5) is True  # directory is (acceptably) stale
        ddir.observe(1, d1.snapshot())  # fresh snapshot corrects it
        assert ddir.test(1, 5) is False


class TestEligibleSnaps:
    def test_matches_directory_iteration(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        d2.add(2)
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        snaps = ddir.eligible_snaps(exclude=99)
        assert [s for s, _ in snaps] == [1, 2]
        assert snaps[0][1] == ddir.get(1)[1]

    def test_excludes_and_limits(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        assert [s for s, _ in ddir.eligible_snaps(exclude=1)] == [2]
        assert [s for s, _ in ddir.eligible_snaps(99, limit=1)] == [1]

    def test_cached_until_version_moves(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        ddir.observe(1, d1.snapshot())
        first = ddir.eligible_snaps(99)
        assert ddir.eligible_snaps(99) is first  # cache hit
        d2.add(2)
        ddir.observe(2, d2.snapshot())  # mutation bumps version
        second = ddir.eligible_snaps(99)
        assert second is not first
        assert [s for s, _ in second] == [1, 2]

    def test_cache_keyed_on_parameters(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        ddir.observe(1, d1.snapshot())
        assert ddir.eligible_snaps(1) == []
        assert [s for s, _ in ddir.eligible_snaps(0)] == [1]

    def test_rejected_observation_keeps_cache(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        new = d1.snapshot()
        ddir.observe(1, new)
        first = ddir.eligible_snaps(99)
        assert not ddir.observe(1, (0, new[1]))  # stale: rejected
        assert ddir.eligible_snaps(99) is first  # version unmoved
