"""Unit tests for the replication protocol (paper section 3)."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree


def make_system(n_servers=8, levels=5, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(
        n_servers=n_servers, seed=2, bootstrap_known_peers=0,
        l_high=0.7, delta_min=0.2, rfact=2.0,
    )
    defaults.update(over)
    cfg = SystemConfig.replicated(**defaults)
    return ns, build_system(ns, cfg)


def force_load(peer, value):
    """Pin a peer's instantaneous load via the hysteresis adjustment."""
    peer.meter.apply_adjustment(value - peer.meter.load())


def run_control_roundtrips(system, n=6):
    """Dispatch pending events long enough for probe/transfer/ack."""
    system.engine.run(until=system.engine.now + n * system.cfg.net_delay + 1e-9)


class TestTrigger:
    def test_no_trigger_below_threshold(self):
        ns, system = make_system()
        p = system.peers[0]
        p.known_loads[1] = (0.0, 0.0)
        force_load(p, 0.5)
        assert not p.repl.maybe_trigger(0.0)

    def test_trigger_above_threshold(self):
        ns, system = make_system()
        p = system.peers[0]
        p.known_loads[1] = (0.0, 0.0)
        force_load(p, 0.9)
        assert p.repl.maybe_trigger(0.0)
        assert p.repl.in_session

    def test_no_concurrent_sessions(self):
        ns, system = make_system()
        p = system.peers[0]
        p.known_loads[1] = (0.0, 0.0)
        force_load(p, 0.9)
        assert p.repl.maybe_trigger(0.0)
        assert not p.repl.maybe_trigger(0.0)

    def test_disabled_never_triggers(self):
        ns, system = make_system(replication_enabled=False)
        p = system.peers[0]
        p.known_loads[1] = (0.0, 0.0)
        force_load(p, 0.99)
        assert not p.repl.maybe_trigger(0.0)

    def test_no_candidates_aborts(self):
        ns, system = make_system()
        p = system.peers[0]
        force_load(p, 0.9)
        assert not p.repl.maybe_trigger(0.0)  # knows nobody
        assert not p.repl.in_session
        assert p.repl.n_sessions_aborted == 1
        assert p.repl.next_allowed > 0.0  # back-off in force


class TestFullSession:
    def test_replicas_shipped_to_idle_target(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        src.known_loads[1] = (0.0, 0.0)
        # make one node clearly hottest
        hot = next(iter(src.owned))
        src.ranking.hit(hot, 100.0)
        force_load(src, 1.0)
        assert src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system)
        assert dst.hosts(hot)
        assert not src.repl.in_session
        assert dst.repl.n_replicas_installed >= 1
        assert src.repl.n_replicas_shipped >= 1

    def test_created_replicas_advertised_by_source(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        src.known_loads[1] = (0.0, 0.0)
        hot = next(iter(src.owned))
        src.ranking.hit(hot, 100.0)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system)
        assert 1 in src.store.adverts_recent.get(hot, ())
        assert 1 in src.maps[hot]  # advertised entry entered the map

    def test_hysteresis_applied_both_sides(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        src.known_loads[1] = (0.0, 0.0)
        hot = next(iter(src.owned))
        src.ranking.hit(hot, 100.0)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system)
        # source booked -(ls-lt)/2 = -0.5, target +0.5
        assert src.meter.load() == pytest.approx(0.5, abs=0.05)
        assert dst.meter.load() == pytest.approx(0.5, abs=0.05)

    def test_replica_has_routing_context(self):
        """Routing through a replica is functionally equivalent to
        routing through the original (paper constraint 2)."""
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        src.known_loads[1] = (0.0, 0.0)
        hot = next(iter(src.owned))
        src.ranking.hit(hot, 100.0)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system)
        for nbr in ns.neighbors(hot):
            assert nbr in dst.maps

    def test_weight_fraction_selects_enough_nodes(self):
        """Creation step 3: ship the smallest top-ranked prefix whose
        weight reaches (ls - lt) / (2 ls)."""
        ns, system = make_system()
        src = system.peers[0]
        owned = sorted(src.owned)
        # equal weights: fraction (1.0-0.0)/(2*1.0)=0.5 needs half of them
        for v in owned:
            src.ranking.hit(v, 10.0)
        src.known_loads[1] = (0.0, 0.0)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system)
        shipped = src.repl.n_replicas_shipped
        expected = -(-len(owned) // 2)  # ceil(half)
        assert shipped == expected


class TestRetryAbort:
    def test_unwilling_target_triggers_retry(self):
        ns, system = make_system(max_attempts=2)
        src = system.peers[0]
        # two candidates, both as loaded as the source -> both refuse
        for sid in (1, 2):
            src.known_loads[sid] = (0.0, 0.0)
            force_load(system.peers[sid], 0.95)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system, n=10)
        assert not src.repl.in_session
        assert src.repl.n_sessions_aborted == 1
        assert system.total_replicas() == 0

    def test_backoff_blocks_new_session(self):
        ns, system = make_system(max_attempts=1, session_backoff=5.0)
        src = system.peers[0]
        src.known_loads[1] = (0.0, 0.0)
        force_load(system.peers[1], 0.95)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system, n=10)
        t = system.engine.now
        force_load(src, 1.0)
        assert not src.repl.maybe_trigger(t)  # still inside back-off
        assert src.repl.maybe_trigger(t + 5.0)

    def test_second_candidate_used_after_first_refuses(self):
        ns, system = make_system(max_attempts=3)
        src = system.peers[0]
        src.known_loads[1] = (0.0, 0.0)
        src.known_loads[2] = (0.1, 0.0)
        force_load(system.peers[1], 0.95)  # min-believed-load target refuses
        hot = next(iter(src.owned))
        src.ranking.hit(hot, 50.0)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system, n=12)
        assert system.peers[2].hosts(hot)


class TestTargetAdmission:
    def test_target_refuses_small_gap(self):
        ns, system = make_system(delta_min=0.2)
        src, dst = system.peers[0], system.peers[1]
        src.known_loads[1] = (0.0, 0.0)
        force_load(dst, 0.85)
        force_load(src, 1.0)  # gap 0.15 < delta_min
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system, n=10)
        assert system.total_replicas() == 0

    def test_rfact_capacity_evicts_lowest_ranked(self):
        """Section 3.5: installs beyond rfact * |owned| evict the
        target's lowest-ranked replicas."""
        ns, system = make_system(n_servers=8, levels=5, rfact=0.1)
        src, dst = system.peers[0], system.peers[1]
        # capacity = max(1, int(0.1 * ~8 owned)) -> a single replica slot
        cap = dst.repl.replica_capacity()
        assert cap == 1
        owned = sorted(src.owned)
        src.known_loads[1] = (0.0, 0.0)
        # session 1: ship one node
        src.ranking.hit(owned[0], 100.0)
        force_load(src, 1.0)
        src.repl.maybe_trigger(0.0)
        run_control_roundtrips(system)
        assert dst.hosts(owned[0])
        # session 2: hotter node displaces the cold replica
        t = system.engine.now + 1.0
        system.engine.run(until=t)
        src.ranking.hit(owned[1], 1000.0)
        force_load(src, 1.0)
        src.known_loads[1] = (0.0, t)
        force_load(dst, 0.0)
        src.repl.maybe_trigger(t)
        run_control_roundtrips(system)
        assert dst.hosts(owned[1])
        assert not dst.hosts(owned[0])
        assert len(dst.store.replicas) <= cap

    def test_duplicate_transfer_merges_maps_only(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        hot = next(iter(src.owned))
        payload = src.store.build_payload(hot)
        dst.store.install(payload, 0.0)
        n_before = len(dst.store.replicas)
        from repro.net.message import TransferMessage
        dst.repl.on_transfer(TransferMessage(99, src.sid, [payload]), 0.0)
        assert len(dst.store.replicas) == n_before  # no double install


class TestEviction:
    def test_evicted_replica_unpins_context(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        hot = next(iter(src.owned))

        def pinned():
            return [v for v in range(len(ns)) if dst.pinned(v)]

        pins_before, maps_before = pinned(), set(dst.maps)
        dst.store.install(src.store.build_payload(hot), 0.0)
        assert set(pinned()) >= set(pins_before) | {hot}
        dst.store.evict(hot, 1.0)
        assert pinned() == pins_before
        assert set(dst.maps) == maps_before
        assert not dst.hosts(hot)

    def test_eviction_rebuilds_digest(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        hot = next(iter(src.owned))
        dst.store.install(src.store.build_payload(hot), 0.0)
        assert hot in dst.digest
        dst.store.evict(hot, 1.0)
        assert hot not in dst.digest

    def test_idle_timeout_eviction(self):
        ns, system = make_system(replica_idle_timeout=10.0)
        src, dst = system.peers[0], system.peers[1]
        hot = next(iter(src.owned))
        dst.store.install(src.store.build_payload(hot), 0.0)
        assert dst.evict_idle_replicas(5.0) == 0
        assert dst.evict_idle_replicas(20.0) == 1
        assert not dst.hosts(hot)

    def test_idle_eviction_disabled_by_default(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        hot = next(iter(src.owned))
        dst.store.install(src.store.build_payload(hot), 0.0)
        assert dst.evict_idle_replicas(1e9) == 0


class TestAutoThreshold:
    """Section 3.1: the high-water threshold 'can automatically be set
    in proportion to the overall system utilization'."""

    def test_fixed_by_default(self):
        ns, system = make_system()
        assert system.peers[0].repl.threshold() == system.cfg.l_high

    def test_auto_tracks_estimated_utilization(self):
        ns, system = make_system(l_high_auto=True, l_high_factor=2.0,
                                 l_high_floor=0.3)
        p = system.peers[0]
        # system believed idle -> threshold clamps to the floor
        p.known_loads[1] = (0.0, 0.0)
        assert p.repl.threshold() == pytest.approx(0.3)
        # heard-about load raises the estimate and the threshold
        p.known_loads[1] = (0.6, 0.0)
        p.known_loads[2] = (0.6, 0.0)
        est = (0.0 + 0.6 + 0.6) / 3
        assert p.repl.threshold() == pytest.approx(2.0 * est)

    def test_auto_threshold_capped(self):
        ns, system = make_system(l_high_auto=True, l_high_factor=2.0)
        p = system.peers[0]
        force_load(p, 1.0)
        for sid in (1, 2, 3):
            p.known_loads[sid] = (1.0, 0.0)
        assert p.repl.threshold() == 0.95

    def test_auto_triggers_earlier_on_idle_system(self):
        """At low overall utilisation the auto policy replicates a
        moderately loaded server that the fixed 0.7 threshold ignores."""
        ns, system = make_system(l_high_auto=True, l_high_factor=1.5,
                                 l_high_floor=0.3)
        p = system.peers[0]
        p.known_loads[1] = (0.05, 0.0)
        force_load(p, 0.5)  # estimate ~0.275 -> threshold ~0.41 < 0.5
        assert p.repl.maybe_trigger(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_system(l_high_factor=0.0)
        with pytest.raises(ValueError):
            make_system(l_high_floor=0.0)


class TestPerServerRfact:
    """Section 3.4: 'The replication factor need not be the same for
    all servers' -- the cap is a locally enforced policy."""

    def test_defaults_to_config(self):
        ns, system = make_system(rfact=2.0)
        p = system.peers[0]
        assert p.rfact == 2.0
        assert p.repl.replica_capacity() == max(1, int(2.0 * len(p.owned)))

    def test_local_override_changes_capacity(self):
        ns, system = make_system(rfact=2.0)
        p = system.peers[1]
        p.rfact = 0.0
        assert p.repl.replica_capacity() == 1  # floor of one replica slot
        p.rfact = 5.0
        assert p.repl.replica_capacity() == 5 * len(p.owned)

    def test_override_enforced_on_install(self):
        ns, system = make_system()
        src, dst = system.peers[0], system.peers[1]
        dst.rfact = 0.0  # one replica slot only
        owned = sorted(src.owned)[:3]
        for node in owned:
            from repro.net.message import TransferMessage
            payload = src.store.build_payload(node)
            dst.repl.on_transfer(TransferMessage(1, src.sid, [payload]), 0.0)
        assert len(dst.store.replicas) <= 1
