"""Unit tests for the server (peer) model: queueing, service, soft state."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree


def make(n_servers=4, levels=4, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(n_servers=n_servers, seed=3, bootstrap_known_peers=0)
    defaults.update(over)
    cfg = SystemConfig.replicated(**defaults)
    return ns, build_system(ns, cfg)


class TestQueueing:
    def test_first_message_starts_service(self):
        ns, system = make()
        p = system.peers[0]
        dest = system.peers[1].owned_nodes()[0]
        p.inject(dest, qid=1)
        assert p.ingress.in_service
        assert len(p.ingress.queue) == 0

    def test_excess_arrivals_dropped(self):
        ns, system = make(queue_size=2)
        p = system.peers[0]
        dest = system.peers[1].owned_nodes()[0]
        for i in range(5):
            p.inject(dest, qid=i)
        # 1 in service + 2 queued + 2 dropped
        assert len(p.ingress.queue) == 2
        assert p.ingress.n_drops == 2
        assert system.stats.drop_reasons.get("queue") == 2

    def test_queue_drains_in_fifo_order(self):
        ns, system = make()
        p = system.peers[0]
        dest = system.peers[1].owned_nodes()[0]
        for i in range(3):
            p.inject(dest, qid=i)
        system.engine.run(until=5.0)
        assert not p.ingress.in_service
        assert len(p.ingress.queue) == 0
        assert p.n_processed == 3

    def test_busy_time_accumulates(self):
        ns, system = make()
        p = system.peers[0]
        dest = system.peers[1].owned_nodes()[0]
        p.inject(dest, qid=1)
        system.run_until(10.0)  # run_until drives window maintenance
        assert p.meter.n_windows > 0


class TestLocalResolution:
    def test_owned_destination_resolves_without_network(self):
        ns, system = make()
        p = system.peers[0]
        dest = p.owned_nodes()[0]
        sent_before = system.transport.n_sent
        p.inject(dest, qid=1)
        system.engine.run(until=2.0)
        assert system.stats.n_completed == 1
        assert system.stats.latency.max < 1.0
        assert system.transport.n_sent == sent_before  # zero network hops


class TestEndToEndQuery:
    def test_remote_lookup_completes(self):
        ns, system = make()
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        assert system.stats.n_completed == 1
        assert system.stats.mean_hops >= 1

    def test_latency_includes_network_and_service(self):
        ns, system = make(net_delay=0.1, service_mean=0.001)
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        # at least one forward + one response = 2 network legs
        assert system.stats.latency.mean >= 0.2

    def test_all_destinations_reachable(self):
        """Every node can be looked up from every server (cold state)."""
        ns, system = make(n_servers=4, levels=3)
        qid = 0
        for dest in range(len(ns)):
            for src in range(4):
                qid += 1
                system.peers[src].inject(dest, qid)
                system.engine.run(until=system.engine.now + 30.0)
        assert system.stats.n_completed == qid
        assert system.stats.n_dropped == 0


class TestSoftStateAbsorption:
    def test_sender_load_learned(self):
        ns, system = make()
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        learned = [
            p for p in system.peers
            if any(s == 0 for s in p.known_loads)
        ]
        assert learned  # someone heard about server 0's load in-band

    def test_digest_snapshot_learned(self):
        ns, system = make()
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        learned = [
            p for p in system.peers if p.sid != 0 and p.digest_dir.get(0)
        ]
        assert learned

    def test_response_caches_destination(self):
        ns, system = make()
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        assert src.cache.peek(dest) is not None

    def test_no_caching_when_disabled(self):
        ns, system = make(caching_enabled=False)
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        assert len(src.cache) == 0


class TestPathPropagation:
    def test_path_entries_cached_at_source(self):
        """Paper section 2.4: the entire path is cached at the source
        when the query completes -- near and far nodes both."""
        ns, system = make(n_servers=8, levels=6)
        src = system.peers[0]
        # pick a destination several hops away
        deep = [v for v in range(len(ns)) if ns.depth[v] == ns.max_depth
                and not src.hosts(v)]
        dest = deep[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        assert system.stats.n_completed == 1
        assert len(src.cache) >= 1

    def test_endpoint_only_when_disabled(self):
        ns, system = make(n_servers=8, levels=6, path_propagation=False)
        src = system.peers[0]
        deep = [v for v in range(len(ns)) if ns.depth[v] == ns.max_depth
                and not src.hosts(v)]
        dest = deep[0]
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        # only the destination itself may be cached
        assert set(src.cache.nodes()) <= {dest}


class TestStaleHops:
    def test_stale_hop_counted_and_query_recovers(self):
        ns, system = make()
        src = system.peers[0]
        dest = system.peers[2].owned_nodes()[0]
        # poison the source cache: server 1 claims to host dest but won't
        src.cache.put(dest, [1])
        src.inject(dest, qid=1)
        system.engine.run(until=10.0)
        assert system.stats.n_stale_hops >= 1
        assert system.stats.n_completed == 1  # recovered via server 1's state


class TestMetaVersioning:
    def test_owner_bumps_meta(self):
        ns, system = make()
        p = system.peers[0]
        node = p.owned_nodes()[0]
        assert p.bump_meta(node) == 1
        assert p.bump_meta(node) == 2

    def test_non_owner_cannot_bump(self):
        ns, system = make()
        p = system.peers[0]
        node = system.peers[1].owned_nodes()[0]
        with pytest.raises(KeyError):
            p.bump_meta(node)

    def test_replica_carries_meta_version(self):
        ns, system = make()
        src, dst = system.peers[0], system.peers[1]
        node = src.owned_nodes()[0]
        src.bump_meta(node)
        src.bump_meta(node)
        dst.store.install(src.store.build_payload(node), 0.0)
        assert dst.store.replicas[node].meta_version == 2
