"""Unit tests for system assembly.

Since issue 24 the builder wires a server's whole share in one pass
(``Peer.adopt_nodes`` / ``Peer.pin_contexts`` / ``Digest.add_many``).
The per-node wiring it replaced is kept here as the reference --
:func:`rewire_per_node` -- and every batch body must leave, peer for
peer, the state that reference leaves: the pinned fingerprints encode
the insertion order of ``maps`` and the ranking.  Map values are
compared as lists: the build stores shared tuples
(:class:`TestSharedSingleServerMaps`).
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.builder import build_shard_system, build_system
from repro.cluster.config import SystemConfig
from repro.cluster.membership import transfer_ownership
from repro.core.nsindex import AncestorIndex
from repro.filters.bloom import BloomFilter
from repro.filters.digest import Digest
from repro.namespace.generators import (
    balanced_tree,
    coda_like_tree,
    random_tree,
)
from repro.namespace.graph import GraphNamespace
from repro.namespace.tree import NamespaceBuilder


class TestBuild:
    def test_every_node_owned_exactly_once(self):
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig(n_servers=8, seed=1))
        seen = {}
        for p in system.peers:
            for v in p.owned:
                assert v not in seen
                seen[v] = p.sid
        assert len(seen) == len(ns)

    def test_every_server_owns_at_least_one(self):
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig(n_servers=8, seed=1))
        assert all(len(p.owned) >= 1 for p in system.peers)

    def test_owner_array_matches_peers(self):
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig(n_servers=8, seed=1))
        for v in range(len(ns)):
            assert v in system.peers[system.owner[v]].owned

    def test_neighbor_contexts_wired(self):
        """Every owned node's neighbors have pinned maps pointing at
        the true owner (routing with incremental progress from t=0)."""
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig(n_servers=8, seed=1))
        for p in system.peers:
            for v in p.owned:
                for nbr in ns.neighbors(v):
                    assert nbr in p.maps
                    assert system.owner[nbr] in p.maps[nbr]

    def test_digest_seeded_with_owned(self):
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig(n_servers=8, seed=1))
        for p in system.peers:
            for v in p.owned:
                assert v in p.digest

    def test_digests_share_position_cache(self):
        ns = balanced_tree(levels=4)
        system = build_system(ns, SystemConfig(n_servers=4, seed=1))
        caches = {id(p.digest.bloom.pos_cache) for p in system.peers}
        assert len(caches) == 1

    def test_bootstrap_known_loads(self):
        ns = balanced_tree(levels=5)
        cfg = SystemConfig(n_servers=8, seed=1, bootstrap_known_peers=3)
        system = build_system(ns, cfg)
        for p in system.peers:
            assert len(p.known_loads) == 3
            assert p.sid not in p.known_loads

    def test_explicit_owner_assignment(self):
        ns = balanced_tree(levels=3)  # 15 nodes
        owner = [v % 3 for v in range(len(ns))]
        system = build_system(ns, SystemConfig(n_servers=3, seed=1), owner=owner)
        assert sorted(system.peers[0].owned) == [v for v in range(15) if v % 3 == 0]

    def test_rejects_more_servers_than_nodes(self):
        ns = balanced_tree(levels=2)  # 7 nodes
        with pytest.raises(ValueError):
            build_system(ns, SystemConfig(n_servers=8))

    def test_rejects_bad_owner_length(self):
        ns = balanced_tree(levels=2)
        with pytest.raises(ValueError):
            build_system(ns, SystemConfig(n_servers=2), owner=[0, 1])

    def test_rejects_out_of_range_owner(self):
        ns = balanced_tree(levels=2)
        with pytest.raises(ValueError):
            build_system(ns, SystemConfig(n_servers=2), owner=[5] * len(ns))

    def test_deterministic_given_seed(self):
        ns = balanced_tree(levels=4)
        a = build_system(ns, SystemConfig(n_servers=4, seed=9))
        b = build_system(ns, SystemConfig(n_servers=4, seed=9))
        assert [sorted(p.owned) for p in a.peers] == [
            sorted(p.owned) for p in b.peers
        ]


class TestConfigPresets:
    def test_base_disables_everything(self):
        cfg = SystemConfig.base()
        assert not cfg.caching_enabled
        assert not cfg.replication_enabled
        assert not cfg.digests_enabled

    def test_caching_preset(self):
        cfg = SystemConfig.caching()
        assert cfg.caching_enabled and not cfg.replication_enabled

    def test_replicated_preset(self):
        cfg = SystemConfig.replicated()
        assert cfg.caching_enabled and cfg.replication_enabled
        assert cfg.digests_enabled

    def test_replace(self):
        cfg = SystemConfig().replace(n_servers=42)
        assert cfg.n_servers == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(n_servers=0)
        with pytest.raises(ValueError):
            SystemConfig(l_high=0.0)
        with pytest.raises(ValueError):
            SystemConfig(service_mean=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(rmap=0)


# ---------------------------------------------------------------------------
# state equivalence: the batch wiring == the per-node wiring it replaced
# ---------------------------------------------------------------------------


def wiring_state(peer):
    """Everything the build wires into one peer, order included."""
    bloom, index = peer.digest.bloom, peer.store.index
    return {
        "maps": [(node, list(servers)) for node, servers in peer.maps.items()],
        "ranking": list(peer.ranking._weight),
        "owned": set(peer.owned),
        "hosted_list": list(peer.hosted_list),
        "vector": peer.digest.snapshot()[1],
        "version": peer.digest.version,
        "n_items": bloom.n_items,
        "index": [list(col) for col in (
            index._ranks, index._nodes, index._seqs, index._rows)],
    }


def digest_add_per_key(digest, node):
    """``Digest.add`` -> ``BloomFilter.add`` as they were: one key's bits."""
    bloom = digest.bloom
    for i, m in bloom.positions(node):
        bloom._buf[i] |= m
    bloom.n_items += 1
    digest.version += 1


def adopt_per_node(peer, node):
    """``adopt_node`` -> ``track_owned`` + ``_wire_owned`` as they were."""
    peer.store.hosted_list.append(node)
    peer.store.index.add(node)
    peer.owned.add(node)
    peer.ranking.track(node)
    entry = peer.maps.get(node)
    if entry is None:
        peer.maps[node] = [peer.sid]
    elif peer.sid not in entry:
        peer.maps[node] = [peer.sid, *entry]
    digest_add_per_key(peer.digest, node)


def strip_wiring(peer):
    """Undo the build's wiring of ``peer``; returns its owned nodes,
    ascending (the order the builder hands them over in)."""
    nodes = sorted(peer.owned)
    peer.owned.clear()
    peer.maps.clear()
    peer.ranking._weight.clear()
    del peer.store.hosted_list[:]
    peer.store.index = AncestorIndex(peer.ns)
    peer.digest = Digest.like(peer.digest, owner_server=peer.sid)
    return nodes


def rewire_per_node(system):
    """Redo every local peer's wiring the pre-issue-24 way: one adoption
    per owned node, then one ``pin`` per neighbour of each."""
    ns, owner = system.ns, system.owner
    for peer in system.local_peers:
        nodes = strip_wiring(peer)
        for node in nodes:
            adopt_per_node(peer, node)
        for node in nodes:
            for nbr in ns.neighbors(node):
                peer.pin(nbr, (owner[nbr],))


def with_cross_links(ns, seed):
    import random

    rng = random.Random(seed)
    n = len(ns)
    links = [(rng.randrange(n), rng.randrange(n)) for _ in range(max(2, n // 4))]
    return GraphNamespace.from_tree(ns, [(a, b) for a, b in links if a != b])


SHAPES = {
    # the shallowest binary or ternary tree of at least n nodes
    "balanced": lambda n, seed: next(
        ns for ns in (balanced_tree(levels, arity=2 + seed % 2)
                      for levels in range(1, 9)) if len(ns) >= n),
    "random": lambda n, seed: random_tree(n, seed=seed),
    "coda": lambda n, seed: coda_like_tree(n_nodes=n, seed=seed),
    "graph": lambda n, seed: with_cross_links(random_tree(n, seed=seed), seed),
}


class TestBatchWiringEqualsPerNodeWiring:
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        n=st.integers(min_value=16, max_value=150),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_servers=st.sampled_from([1, 3, 16]),
        rmap=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_serial_and_sharded_builds(self, shape, n, seed, n_servers, rmap):
        ns = SHAPES[shape](n, seed)
        cfg = SystemConfig(n_servers=n_servers, rmap=rmap, seed=seed)
        built = build_system(ns, cfg)
        got = [wiring_state(p) for p in built.peers]
        rewire_per_node(built)
        want = [wiring_state(p) for p in built.peers]
        assert got == want
        # the union of the shards is the serial system, sid for sid
        for n_shards in (1, 2, 4):
            if n_shards > n_servers:
                continue
            seen = []
            for shard_id in range(n_shards):
                shard = build_shard_system(ns, cfg, shard_id, n_shards)
                for peer in shard.local_peers:
                    assert wiring_state(peer) == want[peer.sid]
                    seen.append(peer.sid)
            assert sorted(seen) == list(range(n_servers))

    def test_rmap_zero_still_creates_empty_maps(self):
        """No config can say ``rmap=0`` (``SystemConfig`` and ``LRUCache``
        refuse it), but ``Peer.pin`` handles it -- an empty map is still
        created -- and the batch body must not differ from ``pin``."""
        ns = random_tree(90, seed=8)
        system = build_system(ns, SystemConfig(n_servers=3, seed=8))
        system.cfg.rmap = 0
        solo = [(s,) for s in range(3)]
        for peer in system.peers:
            nodes = strip_wiring(peer)
            peer.adopt_nodes(nodes)
            peer.pin_contexts(nodes, system.owner, solo)
        got = [wiring_state(p) for p in system.peers]
        rewire_per_node(system)
        assert got == [wiring_state(p) for p in system.peers]
        peer = system.peers[0]
        pinned_only = [v for v in peer.maps if v not in peer.owned]
        assert pinned_only and all(peer.pinned(v) for v in pinned_only)
        assert all(len(peer.maps[v]) == 0 for v in pinned_only)

    def test_cross_links_are_pinned(self):
        """A bulk context read off the tree arenas alone would drop them."""
        ns = with_cross_links(balanced_tree(levels=4), seed=5)
        assert ns.n_cross_links
        system = build_system(ns, SystemConfig(n_servers=3, seed=2))
        for peer in system.peers:
            for v in peer.owned:
                for nbr in ns.cross.get(v, ()):
                    assert system.owner[nbr] in peer.maps[nbr]

    def test_contexts_is_neighbors_concatenated(self):
        for ns in (balanced_tree(levels=4, arity=3), random_tree(80, seed=3),
                   with_cross_links(random_tree(80, seed=4), seed=4)):
            nodes = list(range(len(ns)))[::-1]
            assert ns.contexts(nodes) == [
                nbr for v in nodes for nbr in ns.neighbors(v)]
            assert ns.contexts(()) == []

    def test_explicit_owner_array_is_returned_as_given(self):
        """Shard workers pass a read-only ``'i'`` view; it is range-
        checked where it lies and never copied."""
        from array import array

        ns = balanced_tree(levels=3)
        view = memoryview(array("i", [v % 3 for v in range(len(ns))]))
        system = build_system(ns, SystemConfig(n_servers=3), owner=view.toreadonly())
        assert system.owner.obj is view.obj
        for bad in (-1, 3):
            owner = [v % 3 for v in range(len(ns))]
            owner[7] = bad
            with pytest.raises(ValueError, match="out of range"):
                build_system(ns, SystemConfig(n_servers=3),
                             owner=memoryview(array("i", owner)))


class TestBatchFilters:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=500), max_size=60),
        warm=st.lists(st.integers(min_value=0, max_value=500), max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_add_many_is_add_in_a_loop(self, keys, warm):
        one = BloomFilter(256, 3, salt=7)
        many = BloomFilter(256, 3, salt=7)
        # a position cache shared with a third filter that has seen some keys
        other = BloomFilter(256, 3, salt=7)
        many.share_cache_with(other)
        other.add_many(warm)
        for k in keys:
            one.add(k)
        many.add_many(keys)
        assert many.snapshot() == one.snapshot()
        assert many.n_items == one.n_items == len(keys)  # duplicates count
        assert all(k in many for k in keys)
        many.add_many(iter(keys))  # any iterable, not only sequences
        assert many.n_items == 2 * len(keys)

    def test_digest_add_many_advances_one_version_per_node(self):
        a, b = Digest(64), Digest(64)
        a.add_many([5, 9, 5, 11])
        for node in (5, 9, 5, 11):
            b.add(node)
        assert a.version == b.version == 4
        assert a.snapshot() == b.snapshot()
        a.add_many(())
        assert a.version == 4  # nothing hosted, nothing to publish
        a.rebuild([9, 11])
        assert a.version == 5 and 9 in a and a.bloom.n_items == 2


class TestAdoptOnARunningSystem:
    def test_adopt_node_is_the_one_element_batch(self):
        """``adopt_node(n)`` == ``adopt_nodes((n,))`` == the per-node body,
        on peers that already hold pins, replicas' worth of index rows
        and a node map for ``n``."""
        ns = balanced_tree(levels=5)
        systems = [build_system(ns, SystemConfig(n_servers=4, seed=3))
                   for _ in range(3)]
        node = next(v for v in range(len(ns))
                    if systems[0].owner[v] != 0 and v in systems[0].peers[0].maps)
        a, b, c = (s.peers[0] for s in systems)
        a.adopt_node(node)
        b.adopt_nodes((node,))
        adopt_per_node(c, node)
        assert wiring_state(a) == wiring_state(b) == wiring_state(c)
        assert a.maps[node][0] == 0  # the adopter leads its node's map

    def test_transfer_still_audits_clean(self):
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig(n_servers=4, seed=3))
        node = next(iter(system.peers[1].owned))
        transfer_ownership(system, node, 2)
        assert node in system.peers[2].owned
        assert node in system.peers[2].digest
        assert system.peers[2].hosted_list[-1] == node


class TestBalancedTreeArithmetic:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("levels", [0, 1, 4])
    def test_equals_the_builder_construction(self, levels, arity):
        b = NamespaceBuilder()
        frontier = [0]
        for _ in range(levels):
            frontier = [b.add_child(p, f"n{i}")
                        for p in frontier for i in range(arity)]
        want, got = b.build(), balanced_tree(levels, arity)
        assert list(got.parent) == list(want.parent)
        assert list(got.depth) == list(want.depth)
        assert list(got.child_arena) == list(want.child_arena)
        assert list(got.child_off) == list(want.child_off)
        assert list(got.anc_arena) == list(want.anc_arena)
        assert (got.n_leaves, got.max_depth) == (want.n_leaves, want.max_depth)
        for v in range(len(want)):
            assert got.label_of(v) == want.label_of(v)
            assert got.name_of(v) == want.name_of(v)
        assert got.id_of(got.name_of(len(got) - 1)) == len(got) - 1


class TestBuildCost:
    """The build runs a body per *peer*, not a call chain per node.

    Python-level ``call`` events (``sys.setprofile``) of one
    ``build_system``, per owned node: 4.8 on this fleet since issue 24
    (13.7 before it: ``_wire_owned -> Digest.add -> BloomFilter.add ->
    positions -> 2 x _splitmix64``, ``ranking.track``, ``ns.neighbors``
    and two ``Peer.pin`` per node; on ``sim_wide``'s 32 767 nodes and
    256 servers 12.5 -> 3.6).  What is left per node is one
    ``positions`` (the hash, once per key per process), one
    ``ranking.track`` and the shuffle's draw; the rest is the per-peer
    constructors.  The count is deterministic, so the bound holds on
    any host; a per-node chain that grows back fails it behind an
    unchanged fingerprint.
    """

    MAX_CALLS_PER_NODE = 6.0

    def test_calls_per_owned_node(self):
        ns = balanced_tree(10)
        cfg = SystemConfig(n_servers=32, seed=1)
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(hook)
        try:
            build_system(ns, cfg)
        finally:
            sys.setprofile(None)
        assert calls / len(ns) <= self.MAX_CALLS_PER_NODE, calls


class TestSharedSingleServerMaps:
    """A map value is read-only, so the build stores one ``(sid,)``
    tuple per server for every single-server map of the fleet.

    ``deep_sizeof`` of all peers' ``maps`` beyond the namespace reads
    75 bytes per entry on this fleet (the dict slot and the key); with
    a one-element list per entry it read 139.
    """

    MAX_BYTES_PER_ENTRY = 100

    @pytest.fixture(scope="class")
    def system(self):
        return build_system(balanced_tree(10), SystemConfig(n_servers=32, seed=1))

    def test_single_server_maps_are_one_object_per_server(self, system):
        solo = {}
        n_single = 0
        for peer in system.peers:
            for servers in peer.maps.values():
                if len(servers) == 1:
                    n_single += 1
                    assert solo.setdefault(servers[0], servers) is servers
        assert n_single > len(system.ns)  # owned maps plus most contexts
        assert len(solo) == len(system.peers)

    def test_no_map_value_is_a_list_after_build(self, system):
        for peer in system.peers:
            assert not any(isinstance(v, list) for v in peer.maps.values())

    def test_bytes_per_map_entry(self, system):
        from repro.sim.memsize import deep_sizeof

        seen: set = set()
        deep_sizeof(system.ns, seen)
        total = sum(deep_sizeof(p.maps, seen) for p in system.peers)
        entries = sum(len(p.maps) for p in system.peers)
        assert total / entries <= self.MAX_BYTES_PER_ENTRY, (total, entries)
