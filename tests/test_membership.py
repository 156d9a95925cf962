"""Tests for ownership transfer and membership changes."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.cluster.membership import (
    add_server,
    retire_server,
    transfer_ownership,
)
from repro.namespace.generators import balanced_tree
from repro.server.state import audit_peer
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import unif_stream


def make(n_servers=8, levels=6, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(n_servers=n_servers, seed=12, digest_probe_limit=1)
    defaults.update(over)
    return ns, build_system(ns, SystemConfig.replicated(**defaults))


class TestTransferOwnership:
    def test_basic_move(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        transfer_ownership(system, node, 1)
        assert node not in system.peers[0].owned
        assert node in system.peers[1].owned
        assert system.owner[node] == 1

    def test_data_and_meta_move(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        src = system.peers[0]
        src.metadata.set_data(node, b"payload")
        src.bump_meta(node)
        transfer_ownership(system, node, 1)
        dst = system.peers[1]
        assert dst.metadata.get_data(node) == b"payload"
        assert dst.metadata.meta(node).version == 1
        assert src.metadata.get_data(node) is None

    def test_new_owner_has_context(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        transfer_ownership(system, node, 1)
        for nbr in ns.neighbors(node):
            assert nbr in system.peers[1].maps

    def test_old_owner_digest_updated(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        transfer_ownership(system, node, 1)
        assert node not in system.peers[0].digest
        assert node in system.peers[1].digest

    def test_rejects_self_transfer(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        with pytest.raises(ValueError):
            transfer_ownership(system, node, 0)

    def test_rejects_bad_server(self):
        ns, system = make()
        with pytest.raises(ValueError):
            transfer_ownership(system, 0, 99)

    def test_replica_holder_promotes_to_owner(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        src, dst = system.peers[0], system.peers[1]
        dst.install_replica(src.build_replica_payload(node), 0.0)
        transfer_ownership(system, node, 1)
        assert node in dst.owned
        assert node not in dst.replicas

    def test_stale_routing_recovers_after_transfer(self):
        """Queries routed with stale maps take a stale hop at the old
        owner and still resolve (section 2.3's tolerance claim)."""
        ns, system = make()
        node = next(iter(system.peers[2].owned))
        transfer_ownership(system, node, 3)
        # server 0 still believes the old mapping (wired at build time
        # only if node neighbors one of its owned nodes; force it)
        system.peers[0].cache.put(node, [2])
        system.inject(0, node)
        system.engine.run(until=10.0)
        assert system.stats.n_completed == 1

    def test_audit_passes_after_transfer(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        transfer_ownership(system, node, 1)
        audit_peer(system.peers[0])
        audit_peer(system.peers[1])

    def test_every_node_still_owned_once(self):
        ns, system = make()
        node = next(iter(system.peers[0].owned))
        transfer_ownership(system, node, 1)
        owned = sorted(v for p in system.peers for v in p.owned)
        assert owned == list(range(len(ns)))


class TestRetireServer:
    def test_retirement_moves_everything(self):
        ns, system = make()
        moved = retire_server(system, 0)
        assert len(system.peers[0].owned) == 0
        assert len(system.peers[0].replicas) == 0
        for node, heir in moved.items():
            assert node in system.peers[heir].owned

    def test_round_robin_heirs(self):
        ns, system = make()
        moved = retire_server(system, 0, heirs=[1, 2])
        assert set(moved.values()) <= {1, 2}

    def test_no_heirs_rejected(self):
        ns, system = make()
        with pytest.raises(ValueError):
            retire_server(system, 0, heirs=[0])

    def test_system_routes_after_retirement(self):
        ns, system = make()
        retire_server(system, 0)
        drv = WorkloadDriver(system, unif_stream(150.0, 5.0, seed=3))
        drv.run()
        assert system.stats.completion_fraction > 0.9


class TestAddServer:
    def test_join_takes_nodes(self):
        ns, system = make()
        victim_nodes = sorted(system.peers[0].owned)[:3]
        sid = add_server(system, victim_nodes)
        assert sid == 8
        assert sorted(system.peers[sid].owned) == victim_nodes
        for v in victim_nodes:
            assert system.owner[v] == sid

    def test_joiner_participates_in_routing(self):
        ns, system = make()
        victim_nodes = sorted(system.peers[0].owned)[:2]
        sid = add_server(system, victim_nodes)
        system.inject(1, victim_nodes[0])
        system.engine.run(until=10.0)
        assert system.stats.n_completed == 1

    def test_joiner_digest_cross_evaluable(self):
        ns, system = make()
        sid = add_server(system, sorted(system.peers[0].owned)[:1])
        joiner = system.peers[sid]
        node = next(iter(joiner.owned))
        old = system.peers[1]
        # built by the fleet's one constructor: same geometry, same
        # position cache, nothing reached into from outside
        assert joiner.digest.bloom.geometry == old.digest.bloom.geometry
        assert joiner.digest.bloom.pos_cache is old.digest.bloom.pos_cache
        assert joiner.digest.owner_server == sid
        # an old peer can evaluate the joiner's snapshot ...
        assert old.digest_dir.observe(sid, joiner.digest.snapshot())
        assert old.digest_dir.test(sid, node) is True
        # ... and the joiner an old peer's
        theirs = next(iter(old.owned))
        assert joiner.digest_dir.observe(old.sid, old.digest.snapshot())
        assert joiner.digest_dir.test(old.sid, theirs) is True
        assert old.digest_dir.n_rejected == joiner.digest_dir.n_rejected == 0

    def test_workload_spans_new_server(self):
        ns, system = make()
        sid = add_server(system, sorted(system.peers[0].owned)[:2])
        drv = WorkloadDriver(system, unif_stream(150.0, 5.0, seed=4))
        drv.run()
        assert system.stats.completion_fraction > 0.9
        assert system.peers[sid].n_processed >= 0
