"""Stats sinks are observers only: swapping them must not change a run.

A fixed-seed fig3-style workload is executed under the default
SystemStats and under NullSink; the simulation-owned counters (per-peer
processed/drops, replica counts) must be identical in both.
"""

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.sim.stats import NullSink, StatsSink, SystemStats
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream


def run_fig3(stats=None):
    """One small fixed-seed BCR run; returns (system, sim-owned state)."""
    ns = balanced_tree(levels=6)
    cfg = SystemConfig.replicated(n_servers=4, seed=7, cache_slots=8)
    system = build_system(ns, cfg, stats=stats)
    spec = cuzipf_stream(rate=300.0, alpha=1.0, warmup=1.0, phase=1.0,
                         n_phases=2, seed=7)
    WorkloadDriver(system, spec).start()
    system.run_until(spec.duration + 1.0)
    fingerprint = {
        "processed": [p.n_processed for p in system.peers],
        "queue_drops": [p.n_queue_drops for p in system.peers],
        "replicas": [sorted(p.replicas) for p in system.peers],
        "hosted": [sorted(p.hosted_list) for p in system.peers],
        "now": system.engine.now,
        "events": system.engine.n_dispatched,
    }
    return system, fingerprint


class TestSinkEquivalence:
    def test_null_sink_leaves_run_identical(self):
        _, base = run_fig3()
        system, null_fp = run_fig3(stats=NullSink())
        assert null_fp == base
        assert isinstance(system.stats, NullSink)

    def test_base_sink_hooks_are_noops(self):
        s = StatsSink()
        s.record_injected(0.0)
        s.record_drop(0.0, "queue")
        s.record_completion(0.0, 0.1, 3, 0)
        s.record_forward(0.0, "cache")
        s.record_stale_hop(0.0)
        s.record_replica_created(0.0, 1)
        s.record_replica_evicted(0.0, 1)
        s.sample_load(0.0, 0.5)
        s.record_client_lookup(0.0)
        s.record_client_timeout(0.0)
        s.record_client_retry(0.0)


class TestSystemStatsAsSink:
    def test_default_system_uses_systemstats(self):
        ns = balanced_tree(levels=4)
        cfg = SystemConfig.replicated(n_servers=2, seed=1)
        system = build_system(ns, cfg)
        assert isinstance(system.stats, SystemStats)

    def test_client_counters_flow_into_sink(self):
        from repro.client.client import TerraDirClient

        ns = balanced_tree(levels=5)
        cfg = SystemConfig.replicated(n_servers=3, seed=2)
        system = build_system(ns, cfg)
        client = TerraDirClient(system, home_server=0)
        fut = client.lookup(ns.name_of(next(iter(system.peers[1].owned))))
        client.wait(fut)
        assert system.stats.n_client_lookups == client.n_lookups >= 1
