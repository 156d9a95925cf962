"""Integration tests: whole-system behaviours the paper claims.

These run small but complete simulations (tens of thousands of queries)
and assert the protocol-level claims of the evaluation section at a
qualitative level; the benchmark suite covers the full figures.
"""

import pytest

from repro.analysis.series import rate_series
from repro.analysis.summary import run_summary
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream
from tests.test_builder import effective_maps


N_SERVERS = 24
LEVELS = 9  # 1023 nodes


def run(preset_factory, spec, seed=7, **over):
    ns = balanced_tree(levels=LEVELS)
    defaults = dict(n_servers=N_SERVERS, seed=seed, cache_slots=10,
                    digest_probe_limit=1)
    defaults.update(over)
    cfg = preset_factory(**defaults)
    system = build_system(ns, cfg)
    driver = WorkloadDriver(system, spec)
    driver.start()
    system.run_until(spec.duration + 3.0)
    return system


RATE = 0.4 * N_SERVERS / (0.005 * 3.5)  # utilisation ~0.4


class TestReplicationHelps:
    """Fig. 5's core claim at integration-test size."""

    @pytest.fixture(scope="class")
    def systems(self):
        spec = cuzipf_stream(RATE, alpha=1.5, warmup=4, phase=4, n_phases=2,
                             seed=3)
        return {
            "B": run(SystemConfig.base, spec),
            "BC": run(SystemConfig.caching, spec),
            "BCR": run(SystemConfig.replicated, spec),
        }

    def test_replication_reduces_drops(self, systems):
        d = {k: s.stats.drop_fraction for k, s in systems.items()}
        assert d["BCR"] < d["B"]
        assert d["BCR"] < d["BC"]
        assert d["BCR"] < 0.5 * d["B"]

    def test_base_drops_substantially_under_skew(self, systems):
        assert systems["B"].stats.drop_fraction > 0.02

    def test_only_bcr_creates_replicas(self, systems):
        assert systems["B"].stats.n_replicas_created == 0
        assert systems["BC"].stats.n_replicas_created == 0
        assert systems["BCR"].stats.n_replicas_created > 0

    def test_caching_reduces_hops(self, systems):
        assert systems["BC"].stats.mean_hops < systems["B"].stats.mean_hops

    def test_control_traffic_two_orders_below_queries(self, systems):
        """Paper section 4.2: load-balancing messages are at least two
        orders of magnitude fewer than queries."""
        s = systems["BCR"]
        assert s.transport.n_control_sent < s.transport.n_sent / 10
        summary = run_summary(s)
        assert summary["control_to_query_ratio"] < 0.1


class TestAdaptation:
    """Fig. 3/4: spikes at popularity reshuffles, fast recovery."""

    @pytest.fixture(scope="class")
    def system(self):
        spec = cuzipf_stream(RATE, alpha=1.25, warmup=5, phase=5,
                             n_phases=3, seed=11)
        return run(SystemConfig.replicated, spec)

    def test_replica_creation_spikes_after_reshuffles(self, system):
        per_sec = rate_series(system, "replicas_created", 21)
        # creations occur both in warm-up (hierarchical stabilisation)
        # and after at least one reshuffle (5s, 10s, 15s boundaries)
        assert sum(per_sec[:6]) > 0
        assert sum(per_sec[6:]) > 0

    def test_drop_fraction_bounded_under_shifts(self, system):
        """The paper's headline: query drops stay bounded (a few %)
        even when heavily skewed input reshuffles repeatedly."""
        assert system.stats.drop_fraction < 0.10

    def test_most_queries_complete(self, system):
        assert system.stats.n_completed / system.stats.n_injected > 0.9


class TestLoadBalance:
    """Fig. 6: max load transient, mean tracks the utilisation target."""

    @pytest.fixture(scope="class")
    def system(self):
        spec = cuzipf_stream(RATE, alpha=1.0, warmup=5, phase=5,
                             n_phases=2, seed=5)
        return run(SystemConfig.replicated, spec)

    def test_mean_load_near_target(self, system):
        means = system.stats.loads.means()
        steady = means[5:]
        avg = sum(steady) / len(steady)
        assert 0.15 < avg < 0.6

    def test_max_load_exceeds_mean_transiently(self, system):
        means = system.stats.loads.means()
        maxima = system.stats.loads.maxima()
        assert max(maxima) > max(means)

    def test_replicas_spread_across_servers(self, system):
        hosts = [len(p.store.replicas) for p in system.peers]
        assert sum(1 for h in hosts if h > 0) >= 3


class TestSoftStateConsistency:
    """Soft state may be stale but the system self-corrects."""

    @pytest.fixture(scope="class")
    def system(self):
        spec = cuzipf_stream(RATE, alpha=1.5, warmup=4, phase=4, n_phases=3,
                             seed=13)
        # low rfact forces churn: creations AND evictions
        return run(SystemConfig.replicated, spec, rfact=0.1)

    def test_churn_occurred(self, system):
        assert system.stats.replicas_evicted.total() > 0

    def test_rfact_respected_everywhere(self, system):
        for p in system.peers:
            assert len(p.store.replicas) <= max(1, int(0.1 * len(p.owned_nodes())))

    def test_stale_hops_exist_but_rare(self, system):
        summary = run_summary(system)
        assert summary["stale_hop_rate"] < 0.2

    def test_queries_still_complete_under_churn(self, system):
        assert system.stats.n_completed / system.stats.n_injected > 0.8

    def test_digest_versions_advance(self, system):
        assert any(p.digest.version > len(p.owned_nodes()) for p in system.peers)


class TestInvariants:
    """Structural invariants that must hold after any run."""

    @pytest.fixture(scope="class")
    def system(self):
        spec = cuzipf_stream(RATE, alpha=1.0, warmup=4, phase=4, n_phases=2,
                             seed=17)
        return run(SystemConfig.replicated, spec)

    def test_ownership_never_changes(self, system):
        owned = sorted(v for p in system.peers for v in p.owned_nodes())
        assert owned == list(range(len(system.ns)))

    def test_hosted_list_consistent(self, system):
        for p in system.peers:
            assert sorted(p.store.hosted_list) == sorted(
                p.owned_nodes() + list(p.store.replicas)
            )

    def test_table1_audit_passes(self, system):
        from repro.server.state import audit_peer

        for p in system.peers:
            audit_peer(p)

    def test_accounting_closes(self, system):
        s = system.stats
        # every query is either completed, dropped, or still in flight
        assert s.n_completed + s.n_dropped <= s.n_injected
        assert s.n_completed + s.n_dropped >= 0.98 * s.n_injected

    def test_cache_bounded(self, system):
        for p in system.peers:
            assert len(p.cache) <= p.cfg.cache_slots

    def test_maps_bounded_by_rmap(self, system):
        for p in system.peers:
            for node, entry in effective_maps(p).items():
                assert len(entry) <= p.cfg.rmap + 1  # +1 for self entry
