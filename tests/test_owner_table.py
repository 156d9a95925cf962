"""Ownership has one record, ``System.owner``.

The paper partitions the namespace over the servers (section 2.3): a
node has exactly one owner.  A peer derives what it owns from that
table and from its hosted list (owned nodes first, in adoption order,
then replicas), so no per-peer copy can drift from it.  These tests
check the derivation on every kind of build, after seeded membership
changes and after a run, and bound a peer's bytes per owned node so
that a per-peer mirror of the table cannot come back unnoticed.
"""

import asyncio
import random

import pytest

from repro.cluster.builder import build_shard_system, build_system
from repro.cluster.config import SystemConfig
from repro.cluster.membership import add_server, retire_server, transfer_ownership
from repro.core.ranking import NodeRanking
from repro.experiments.common import rate_for_utilization
from repro.namespace.generators import balanced_tree, coda_like_tree
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_service import build_live_system
from repro.runtime.async_wire import AsyncWire, uds_addresses
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream, unif_stream
from tests.test_derived_pins import CountedPins, assert_same

TREES = {
    "balanced": lambda: balanced_tree(levels=7),
    "coda": lambda: coda_like_tree(n_nodes=300, seed=5),
}
N_SERVERS = 8


def adoption_model(system):
    """sid -> owned ids in adoption order, as the builder hands them over
    (ascending id)."""
    adopted = {sid: [] for sid in range(system.cfg.n_servers)}
    for v, sid in enumerate(system.owner):
        adopted[sid].append(v)
    return adopted


def check_fleet(system, adopted):
    """Every local peer's view of ownership against the owner table and
    the test's model of adoption order."""
    owner = system.owner
    nodes = range(len(system.ns))
    for peer in system.local_peers:
        sid, store = peer.sid, peer.store
        mine = [v for v in nodes if owner[v] == sid]
        assert [v for v in nodes if peer.owns(v)] == mine, sid
        n_owned = len(store.hosted_list) - len(store.replicas)
        assert n_owned == len(mine), sid
        assert store.hosted_list[:n_owned] == adopted[sid], sid
        assert peer.owned_nodes() == adopted[sid], sid


def live_system(ns, cfg):
    loop = asyncio.new_event_loop()
    try:
        # nothing listens or connects: the build only registers peers
        wire = AsyncWire(loop, uds_addresses("/nonexistent", cfg.n_servers))
        return build_live_system(ns, cfg, AsyncRuntime(loop), wire)
    finally:
        loop.close()


@pytest.mark.parametrize("tree", sorted(TREES))
class TestOwnershipIsTheOwnerTable:
    def test_serial_shard_and_live_builds(self, tree):
        ns = TREES[tree]()
        cfg = SystemConfig.replicated(n_servers=N_SERVERS, seed=4)
        serial = build_system(ns, cfg)
        adopted = adoption_model(serial)
        check_fleet(serial, adopted)
        for shard_id in range(2):
            shard = build_shard_system(ns, cfg, shard_id, 2)
            check_fleet(shard, adopted)
        check_fleet(live_system(ns, cfg), adopted)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_after_random_membership_changes(self, tree, seed):
        """Ownership, and every peer's maps: the same sequence runs on
        :class:`CountedPins`, whose peers keep every map in a full dict,
        so a default map read off the live owner table must equal what
        a transfer wrote out (paper section 2.3)."""
        ns = TREES[tree]()
        cfg = SystemConfig.replicated(n_servers=N_SERVERS, seed=seed)
        system = build_system(ns, cfg)
        ref = CountedPins(build_system(ns, cfg))
        adopted = adoption_model(system)
        rng = random.Random(seed)

        def moved(node, new_owner):
            adopted[system.owner[node]].remove(node)
            adopted[new_owner].append(node)

        for _ in range(30):
            op = rng.random()
            n_peers = len(system.peers)
            if op < 0.7:
                node = rng.randrange(len(ns))
                new_owner = rng.randrange(n_peers)
                if system.owner[node] == new_owner:
                    continue
                moved(node, new_owner)
                transfer_ownership(system, node, new_owner)
                ref.transfer(node, new_owner)
            elif op < 0.85:
                sid = rng.randrange(n_peers)
                if not adopted[sid]:
                    continue
                heirs = rng.sample(range(n_peers), 3)
                live_heirs = [h for h in heirs if h != sid]
                for i, node in enumerate(sorted(adopted[sid])):
                    moved(node, live_heirs[i % len(live_heirs)])
                retire_server(system, sid, heirs)
                ref.retire(sid, heirs)
            else:
                take = rng.sample(range(len(ns)), 3)
                adopted[len(system.peers)] = []
                for node in take:
                    moved(node, len(system.peers))
                add_server(system, take)
                ref.add(take)
            check_fleet(system, adopted)
            assert_same(system, ref)
        assert len(system.peers) > N_SERVERS


#: the bench's two simulator input geometries at smoke size: uniform
#: destinations at 20 % utilisation (``sim_wide``), and a Zipf hot set
#: that re-ranks twice, at 50 % and a replica cap of one per server, so
#: that replicas are created and evicted (``sim_hotspot``)
RUNS = {
    "wide": (2.0, lambda n: unif_stream(
        rate_for_utilization(0.2, n), duration=0.5, seed=1)),
    "hotspot": (0.1, lambda n: cuzipf_stream(
        rate_for_utilization(0.5, n), alpha=1.0, warmup=1.0, phase=1.0,
        n_phases=3, seed=1)),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_ranking_weighs_only_hosted_nodes(monkeypatch, run):
    """After a run, every ranking weight belongs to a node its peer
    hosts: ``hit`` is only ever called for a hosted node, and unhosting
    forgets the weight."""
    rfact, stream = RUNS[run]
    n = 32
    cfg = SystemConfig.replicated(n_servers=n, cache_slots=16,
                                  digest_probe_limit=2, rfact=rfact, seed=1)
    system = build_system(balanced_tree(levels=9), cfg)
    peer_of = {id(p.ranking): p for p in system.peers}
    hit = NodeRanking.hit
    unhosted = []

    def checked_hit(ranking, node, amount=1.0):
        if not peer_of[id(ranking)].hosts(node):
            unhosted.append(node)
        hit(ranking, node, amount)

    monkeypatch.setattr(NodeRanking, "hit", checked_hit)
    WorkloadDriver(system, stream(n)).run(extra_time=6.0)
    summary = system.stats.summary()
    assert summary["completed"] > 0
    if run == "hotspot":
        evicted = sum(system.stats.level_evictions)
        assert summary["replicas_created"] > evicted > 0
    assert not unhosted
    weighted = 0
    for peer in system.peers:
        hosted = set(peer.store.hosted_list)
        weights = peer.ranking._weight
        assert set(weights) <= hosted, peer.sid
        weighted += len(weights)
    assert weighted > 0
    check_fleet(system, adoption_model(system))


def test_an_adoption_beside_replicas_goes_before_them():
    """A node transferred to a server that hosts replicas joins the
    owned front of its hosted list, and the ancestor index follows."""
    ns = balanced_tree(levels=6)
    system = build_system(ns, SystemConfig.replicated(n_servers=4, seed=2))
    adopted = adoption_model(system)
    dst = system.peers[1]
    for node in adopted[0][:3]:
        dst.store.install(system.peers[0].store.build_payload(node), 0.0)
    node = adopted[2][0]
    adopted[2].remove(node)
    adopted[1].append(node)
    transfer_ownership(system, node, 1)
    check_fleet(system, adopted)
    store = dst.store
    assert list(store.hosted_list[-3:]) == adopted[0][:3]
    index = store.index
    by_seq = [v for _, v in sorted(zip(index._seqs, index._nodes))]
    assert by_seq == store.hosted_list


class TestPeerBytesPerOwnedNode:
    """A peer derives what it owns, and the maps it does not store,
    from the fleet's owner table, and its ranking stores only weights
    that demand created.

    ``deep_sizeof`` of all peers beyond the namespace, their ancestor
    indexes and the fleet-level objects they reference (the node id
    ints among them, one per node for the fleet) reads 111 bytes per
    owned node on this fleet, the (empty) map overlays included; it
    read 110 without them and 179 when every peer kept a set of its
    owned ids and a zero weight for each.  The maps themselves were
    another 60 bytes per entry, about three entries per owned node.
    """

    MAX_BYTES_PER_OWNED_NODE = 121
    #: ``deep_sizeof`` of every overlay after the short replicated run
    #: of ``test_overlays_store_only_what_differs``: it reads 34 KiB,
    #: 240 stored maps of the 3 147 the peers read (all of them stored,
    #: at 60 bytes each, would be 184 KiB)
    MAX_OVERLAY_BYTES_AFTER_RUN = 38 * 1024

    def test_bytes_per_owned_node(self):
        from repro.sim.memsize import deep_sizeof

        system = build_system(balanced_tree(10),
                              SystemConfig(n_servers=32, seed=1))
        seen: set = set()
        deep_sizeof(system.ns, seen)
        for peer in system.peers:
            deep_sizeof(peer.store.index, seen)
            seen.update(map(id, peer.store.hosted_list))
        for shared in (system, system.runtime, system.cfg, system.stats,
                       system.owner, system.solo):
            seen.add(id(shared))
        total = sum(deep_sizeof(p, seen) for p in system.peers)
        per_node = total / len(system.ns)
        assert per_node <= self.MAX_BYTES_PER_OWNED_NODE, total

    def test_overlays_store_only_what_differs(self):
        """The build stores no map; a replicated run stores the few
        that replicas, adverts and merges made differ from the owner
        table's default."""
        from repro.sim.memsize import deep_sizeof

        rfact, stream = RUNS["hotspot"]
        n = 32
        cfg = SystemConfig.replicated(n_servers=n, cache_slots=16,
                                      digest_probe_limit=2, rfact=rfact,
                                      seed=1)
        system = build_system(balanced_tree(levels=9), cfg)
        assert not any(p.maps for p in system.peers)
        WorkloadDriver(system, stream(n)).run(extra_time=6.0)
        assert system.stats.summary()["replicas_created"] > 0
        assert any(p.maps for p in system.peers)
        seen: set = {id(system.ns)}
        total = sum(deep_sizeof(p.maps, seen) for p in system.peers)
        assert total <= self.MAX_OVERLAY_BYTES_AFTER_RUN, total
