"""Tests for fail-stop failures, recovery, and the protocol's reaction."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.cluster.failures import FailureInjector, unreachable_nodes
from repro.namespace.generators import balanced_tree
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import uzipf_stream


def make(n_servers=16, levels=7, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(n_servers=n_servers, seed=8, digest_probe_limit=1,
                    cache_slots=10)
    defaults.update(over)
    cfg = SystemConfig.replicated(**defaults)
    return ns, build_system(ns, cfg)


class TestFailStop:
    def test_failed_server_receives_nothing(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        dest = next(iter(system.peers[3].owned))
        system.inject(0, dest)
        system.engine.run(until=5.0)
        assert system.peers[3].n_processed == 0
        # the query died somewhere: lost in transit or TTL'd
        assert system.stats.n_completed == 0
        assert system.stats.n_dropped >= 1

    def test_lost_queries_accounted_as_drops(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        dest = next(iter(system.peers[3].owned))
        for _ in range(5):
            system.inject(0, dest)
            system.engine.run(until=system.engine.now + 2.0)
        assert system.stats.drop_reasons.get("failure", 0) >= 1

    def test_in_flight_messages_lost(self):
        ns, system = make(net_delay=1.0)
        inj = FailureInjector(system)
        dest = next(iter(system.peers[3].owned))
        system.inject(0, dest)  # message now in flight toward 3's subtree
        system.engine.run(until=0.5)
        inj.fail(3)
        system.engine.run(until=10.0)
        assert system.peers[3].n_processed == 0

    def test_unaffected_traffic_still_completes(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        # a lookup entirely within server 0's owned set
        dest = next(iter(system.peers[0].owned))
        system.inject(0, dest)
        system.engine.run(until=2.0)
        assert system.stats.n_completed == 1

    def test_fail_random_respects_protection(self):
        ns, system = make()
        inj = FailureInjector(system)
        victims = inj.fail_random(5, protect=[0, 1])
        assert len(victims) == 5
        assert 0 not in victims and 1 not in victims
        assert inj.failed == set(victims)

    def test_double_fail_idempotent(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        inj.fail(3)
        assert inj.n_failures == 1


class TestRecovery:
    def test_recovered_server_serves_again(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        system.engine.run(until=1.0)
        inj.recover(3)
        dest = next(iter(system.peers[3].owned))
        system.inject(0, dest)
        system.engine.run(until=system.engine.now + 5.0)
        assert system.stats.n_completed == 1

    def test_recovery_clears_queue_and_service(self):
        ns, system = make()
        inj = FailureInjector(system)
        p = system.peers[3]
        dest = next(iter(p.owned))
        # fill its queue then fail it mid-service
        for i in range(4):
            p.inject(dest, qid=100 + i)
        inj.fail(3)
        system.engine.run(until=2.0)
        inj.recover(3)
        assert len(p.queue) == 0
        assert not p.in_service
        assert not p.meter.busy

    def test_recover_all(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail_random(4)
        inj.recover_all()
        assert not inj.failed


class TestResilienceThroughReplication:
    def test_replicas_keep_nodes_reachable_after_owner_failure(self):
        """A failed owner's nodes stay resolvable via their replicas --
        the routing-state availability the paper's replication targets."""
        ns, system = make()
        inj = FailureInjector(system)
        owner = system.peers[3]
        node = next(iter(owner.owned))
        other = system.peers[5]
        other.install_replica(owner.build_replica_payload(node), 0.0)
        inj.fail(3)
        # make the replica known at the source so routing can use it
        src = system.peers[0]
        src.cache.put(node, [5])
        system.inject(0, node)
        system.engine.run(until=5.0)
        assert system.stats.n_completed == 1

    def test_unreachable_nodes_detection(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        holes = unreachable_nodes(system)
        assert set(holes) == set(system.peers[3].owned)
        inj.recover(3)
        assert unreachable_nodes(system) == []

    def test_system_survives_failures_under_load(self):
        """Kill a quarter of the servers mid-run: the system keeps
        completing a large share of queries and keeps adapting."""
        ns, system = make(n_servers=16, levels=8)
        inj = FailureInjector(system)
        rate = 0.3 * 16 / (0.005 * 3.5)
        spec = uzipf_stream(rate, 20.0, alpha=1.0, seed=4)
        driver = WorkloadDriver(system, spec)
        driver.start()
        system.run_until(8.0)
        inj.fail_random(4, protect=[0])
        system.run_until(spec.duration + 3.0)
        s = system.stats
        assert s.n_completed > 0.5 * s.n_injected
        # replication sessions with dead partners were aborted, not hung
        for p in system.peers:
            if not p.failed:
                assert not p.repl.in_session or p.repl.next_allowed >= 0

    def test_session_timeout_aborts_on_dead_partner(self):
        ns, system = make(session_timeout=0.5, bootstrap_known_peers=0)
        inj = FailureInjector(system)
        src = system.peers[0]
        src.known_loads[3] = (0.0, 0.0)
        inj.fail(3)
        src.meter.apply_adjustment(1.0)
        assert src.repl.maybe_trigger(0.0)
        assert src.repl.in_session
        system.engine.run(until=2.0)
        assert not src.repl.in_session
        assert src.repl.n_sessions_aborted == 1


class TestStaticReplicationBaseline:
    def test_top_levels_replicated(self):
        from repro.core.static_replication import replicate_top_levels

        ns, system = make()
        placed = replicate_top_levels(system, depth_limit=2, copies=3, seed=1)
        assert len(placed) == 7  # levels 0..2 of a binary tree
        for node, servers in placed.items():
            assert ns.depth[node] <= 2
            for sid in servers:
                assert system.peers[sid].hosts(node)
        assert sum(map(len, placed.values())) == 21  # 7 nodes x 3 copies

    def test_static_does_not_count_as_adaptive_creation(self):
        from repro.core.static_replication import replicate_top_levels

        ns, system = make()
        replicate_top_levels(system, depth_limit=1, copies=2, seed=1)
        assert system.stats.n_replicas_created == 0
        assert system.total_replicas() > 0

    def test_record_stats_option(self):
        from repro.core.static_replication import replicate_top_levels

        ns, system = make()
        placed = replicate_top_levels(system, depth_limit=0, copies=2,
                                      seed=1, record_stats=True)
        assert system.stats.n_replicas_created == len(placed[0])

    def test_validation(self):
        from repro.core.static_replication import replicate_top_levels

        ns, system = make()
        with pytest.raises(ValueError):
            replicate_top_levels(system, depth_limit=-1)
        with pytest.raises(ValueError):
            replicate_top_levels(system, copies=0)
