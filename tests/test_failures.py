"""Tests for fail-stop failures, recovery, and the protocol's reaction."""

import asyncio

import pytest

from repro.cluster.builder import build_shard_system, build_system
from repro.cluster.config import SystemConfig
from repro.cluster.failures import FailureInjector, unreachable_nodes
from repro.experiments.common import rate_for_utilization
from repro.namespace.generators import balanced_tree
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_service import build_live_system
from repro.runtime.async_wire import AsyncWire, uds_addresses
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream, uzipf_stream


def make(n_servers=16, levels=7, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(n_servers=n_servers, seed=8, digest_probe_limit=1,
                    cache_slots=10)
    defaults.update(over)
    cfg = SystemConfig.replicated(**defaults)
    return ns, build_system(ns, cfg)


class TestSerialOnly:
    """Failures are serial-only: ``ShardSystem.inject`` and
    ``LiveSystem.inject`` start a lookup drawn at a failed server there,
    where ``System.inject`` re-homes it, so the injector refuses every
    system but the serial one, naming its class."""

    def test_shard_system_is_refused(self):
        ns = balanced_tree(levels=6)
        shard = build_shard_system(ns, SystemConfig(n_servers=4, seed=8), 0, 2)
        with pytest.raises(ValueError, match="ShardSystem"):
            FailureInjector(shard)
        assert shard.transport.on_lost is None

    def test_live_system_is_refused(self):
        ns = balanced_tree(levels=6)
        cfg = SystemConfig(n_servers=4, seed=8)
        loop = asyncio.new_event_loop()
        try:
            # nothing listens or connects: the build only registers peers
            wire = AsyncWire(loop, uds_addresses("/nonexistent", 4))
            live = build_live_system(ns, cfg, AsyncRuntime(loop), wire)
            with pytest.raises(ValueError, match="LiveSystem"):
                FailureInjector(live)
        finally:
            loop.close()


class TestFailStop:
    def test_failed_server_receives_nothing(self):
        ns, system = make()
        inj = FailureInjector(system)
        inj.fail(3)
        dest = system.peers[3].owned_nodes()[0]
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
        dest = system.peers[3].owned_nodes()[0]
        for _ in range(5):
            system.inject(0, dest)
            system.engine.run(until=system.engine.now + 2.0)
        assert system.stats.drop_reasons.get("failure", 0) >= 1

    def test_in_flight_messages_lost(self):
        ns, system = make(net_delay=1.0)
        inj = FailureInjector(system)
        dest = system.peers[3].owned_nodes()[0]
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
        dest = system.peers[0].owned_nodes()[0]
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
        dest = system.peers[3].owned_nodes()[0]
        system.inject(0, dest)
        system.engine.run(until=system.engine.now + 5.0)
        assert system.stats.n_completed == 1

    def test_recovery_clears_queue_and_service(self):
        ns, system = make()
        inj = FailureInjector(system)
        p = system.peers[3]
        dest = p.owned_nodes()[0]
        # fill its queue then fail it mid-service
        for i in range(4):
            p.inject(dest, qid=100 + i)
        inj.fail(3)
        system.engine.run(until=2.0)
        inj.recover(3)
        assert len(p.ingress.queue) == 0
        assert not p.ingress.in_service
        assert not p.meter.busy

    def test_every_lookup_is_completed_or_dropped(self):
        """Fail three busy servers mid-run and bring them back: each
        injected lookup ends up completed or recorded as a drop --
        those queued or in service at the failure included -- and a
        lookup drawn at a dead server starts at a live one instead."""
        ns = balanced_tree(levels=8)
        system = build_system(ns, SystemConfig.replicated(n_servers=16, seed=3))
        inj = FailureInjector(system)
        at_dead = []  # per injection: did it start at a failed server?
        system.on_inject = lambda now, src, dest: at_dead.append(
            system.peers[src].failed)
        spec = cuzipf_stream(rate_for_utilization(0.8, 16), alpha=1.0,
                             warmup=1.0, phase=1.0, n_phases=1, seed=3)
        WorkloadDriver(system, spec).start()
        system.run_until(1.0)
        busy = sorted(system.peers, key=lambda p: -len(p.ingress.queue))[:3]
        assert all(p.ingress.queue for p in busy)
        for p in busy:
            inj.fail(p.sid)
        system.run_until(1.5)
        for p in busy:
            inj.recover(p.sid)
        system.run_until(spec.duration + 10.0)
        s = system.stats
        assert s.drop_reasons.get("failure", 0) > 0
        assert s.n_injected == s.n_completed + s.n_dropped
        assert len(at_dead) == s.n_injected and not any(at_dead)

    def test_a_completion_from_before_a_failure_is_void(self):
        """A service completion scheduled before a failure never takes
        over the recovered server's next service."""
        ns = balanced_tree(levels=5)
        system = build_system(ns, SystemConfig.replicated(n_servers=4, seed=1))
        inj = FailureInjector(system)
        dest = system.peers[0].owned_nodes()[0]
        system.inject(0, dest)
        inj.fail(0)
        inj.recover(0)
        system.inject(0, dest)
        system.run_until(10.0)
        s = system.stats
        assert (s.n_injected, s.n_completed, s.n_dropped) == (2, 1, 1)
        assert dict(s.drop_reasons) == {"failure": 1}

    def test_a_failed_server_drops_what_is_injected_there(self):
        """A lookup starts at a failed server only when every server
        has failed (``System.inject`` moves it to a live one
        otherwise): it is one ``failure`` drop, with no service drawn."""
        ns, system = make()
        inj = FailureInjector(system)
        p = system.peers[3]
        for sid in range(len(system.peers)):
            inj.fail(sid)
        state = p.rng.getstate()
        starts = []
        system.on_inject = lambda now, src, dest: starts.append(src)
        system.inject(3, p.owned_nodes()[0])
        assert starts == [3]
        assert p.rng.getstate() == state  # no service time drawn
        assert not p.meter.busy and not p.ingress.in_service
        s = system.stats
        assert (s.n_injected, s.n_dropped) == (1, 1)
        assert dict(s.drop_reasons) == {"failure": 1}

    @pytest.mark.parametrize("drawn, dead, start", [
        (3, (3, 4), 5),
        (15, (15,), 0),  # wraps around
        (14, (14, 15, 0), 1),
    ])
    def test_a_lookup_drawn_at_a_failed_server_starts_at_the_next_live_one(
            self, drawn, dead, start):
        ns, system = make()
        inj = FailureInjector(system)
        for sid in dead:
            inj.fail(sid)
        starts = []
        system.on_inject = lambda now, src, dest: starts.append(src)
        dest = system.peers[start].owned_nodes()[0]
        system.inject(drawn, dest)
        system.engine.run(until=2.0)
        assert starts == [start]
        assert system.peers[start].n_processed == 1
        s = system.stats
        assert (s.n_injected, s.n_completed, s.n_dropped) == (1, 1, 0)

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
        node = owner.owned_nodes()[0]
        other = system.peers[5]
        other.store.install(owner.store.build_payload(node), 0.0)
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
        assert set(holes) == set(system.peers[3].owned_nodes())
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
                assert p.repl._session is None or p.repl.next_allowed >= 0

    def test_session_timeout_aborts_on_dead_partner(self):
        ns, system = make(session_timeout=0.5, bootstrap_known_peers=0)
        inj = FailureInjector(system)
        src = system.peers[0]
        src.known_loads[3] = (0.0, 0.0)
        inj.fail(3)
        src.meter.apply_adjustment(1.0)
        assert src.repl.maybe_trigger(0.0)
        assert src.repl._session is not None
        system.engine.run(until=2.0)
        assert src.repl._session is None
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
