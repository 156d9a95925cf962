"""Unit tests for node mapping management (paper section 3.7)."""

import random

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.core.maps import merge_maps
from repro.core.routing import _select
from repro.namespace.generators import balanced_tree


class TestMergeMaps:
    def test_bounded_by_rmap(self):
        rng = random.Random(0)
        out = merge_maps([1, 2, 3], [4, 5, 6], rmap=4, rng=rng)
        assert len(out) == 4
        assert len(set(out)) == 4

    def test_advertised_always_kept(self):
        rng = random.Random(0)
        for _ in range(20):
            out = merge_maps([1, 2, 3, 4], [5, 6, 7, 8], rmap=3, rng=rng,
                             advertised=(9,))
            assert out[0] == 9

    def test_advertised_capped_at_rmap(self):
        rng = random.Random(0)
        out = merge_maps([], [], rmap=2, rng=rng, advertised=(1, 2, 3))
        assert out == [1, 2]

    def test_union_when_room(self):
        rng = random.Random(0)
        out = merge_maps([1], [2], rmap=4, rng=rng)
        assert set(out) == {1, 2}

    def test_dedupes(self):
        rng = random.Random(0)
        out = merge_maps([1, 2], [2, 1], rmap=4, rng=rng)
        assert sorted(out) == [1, 2]

    def test_random_fill_varies(self):
        """Two merges of the same maps may differ -- the paper merges
        twice (kept vs propagated) to diversify map configurations."""
        rng = random.Random(1)
        pool_a = list(range(10))
        results = {tuple(sorted(merge_maps(pool_a, [], 3, rng)))
                   for _ in range(30)}
        assert len(results) > 1

    def test_rejects_bad_rmap(self):
        with pytest.raises(ValueError):
            merge_maps([], [], rmap=0, rng=random.Random(0))


class TestSelectHost:
    """A host drawn from a map: ``routing._select``, -1 when none."""

    def test_none_on_empty(self):
        assert _select([], random.Random(0), exclude=-1) == -1

    def test_excludes_self(self):
        assert _select([7], random.Random(0), exclude=7) == -1
        assert _select([7, 8], random.Random(0), exclude=7) == 8

    def test_uniform_choice(self):
        rng = random.Random(0)
        seen = {_select([1, 2, 3], rng, exclude=-1) for _ in range(100)}
        assert seen == {1, 2, 3}


class TestNodeMap:
    """A node map as a peer keeps it: a ``Peer.map_of`` value."""

    def test_add_preferred_evicts_when_full(self):
        """An advertised new replica enters a full map at the front
        (``ReplicaStore.note_created``) and evicts a random entry, never
        the server's own."""
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig.replicated(
            n_servers=4, seed=1, rmap=2))
        peer = system.peers[0]
        for node in peer.owned_nodes()[:12]:
            peer.set_map(node, (3, peer.sid))
            peer.store.note_created(node, 2, 0.0)
            assert peer.map_of(node) == [2, peer.sid]
