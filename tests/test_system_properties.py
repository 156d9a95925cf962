"""Property-based whole-system tests: random micro-campaigns must
preserve the protocol's structural invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree, random_tree
from repro.server.state import audit_peer
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import StreamSegment, WorkloadSpec


configs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "caching_enabled": st.booleans(),
        "replication_enabled": st.booleans(),
        "digests_enabled": st.booleans(),
        "path_propagation": st.booleans(),
        "hysteresis_enabled": st.booleans(),
        "advertisement_enabled": st.booleans(),
        "rfact": st.sampled_from([0.1, 0.5, 2.0]),
        "rmap": st.integers(1, 6),
        "queue_size": st.integers(0, 16),
        "cache_slots": st.integers(0, 16),
        "l_high": st.floats(0.3, 0.95),
        "replica_idle_timeout": st.sampled_from([0.0, 1.0]),
    }
)

workloads = st.fixed_dictionaries(
    {
        "alpha": st.sampled_from([0.0, 0.75, 1.5]),
        "rate": st.floats(50.0, 600.0),
        "wseed": st.integers(0, 2**16),
        "reshuffle": st.booleans(),
    }
)


@given(configs, workloads, st.integers(0, 3))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_campaign_preserves_invariants(cfg_kwargs, wl, tree_pick):
    if tree_pick == 3:
        ns = random_tree(150, seed=tree_pick)
    else:
        ns = balanced_tree(levels=5 + tree_pick)
    cfg = SystemConfig(
        n_servers=8, digest_probe_limit=1, bootstrap_known_peers=4,
        **cfg_kwargs,
    )
    system = build_system(ns, cfg)
    segments = [StreamSegment(2.0, alpha=wl["alpha"],
                              reshuffle=False)]
    if wl["reshuffle"]:
        segments.append(StreamSegment(2.0, alpha=max(wl["alpha"], 0.75),
                                      reshuffle=True))
    spec = WorkloadSpec(rate=wl["rate"], segments=tuple(segments),
                        seed=wl["wseed"])
    WorkloadDriver(system, spec).run(extra_time=3.0)

    stats = system.stats
    # 1. accounting closes: nothing invented, (almost) nothing leaks
    assert stats.n_completed + stats.n_dropped <= stats.n_injected
    assert stats.n_completed + stats.n_dropped >= 0.95 * stats.n_injected

    # 2. ownership is a partition, always
    owned = sorted(v for p in system.peers for v in p.owned_nodes())
    assert owned == list(range(len(ns)))

    # 3. bounds: rfact, cache capacity, queue, hosted-list consistency
    for p in system.peers:
        assert len(p.store.replicas) <= max(1, int(cfg.rfact * len(p.owned_nodes())))
        assert len(p.cache) <= p.cache.capacity
        assert len(p.ingress.queue) <= cfg.queue_size
        assert sorted(p.store.hosted_list) == sorted(
            p.owned_nodes() + list(p.store.replicas)
        )

    # 4. replicas only exist when the feature is on
    if not cfg.replication_enabled:
        assert system.total_replicas() == 0
        assert stats.n_replicas_created == 0

    # 5. caches only hold state when caching is on
    if not cfg.caching_enabled:
        assert all(len(p.cache) == 0 for p in system.peers)

    # 6. Table 1 discipline holds for every server
    for p in system.peers:
        audit_peer(p)

    # 7. control traffic stays far below query traffic
    if system.transport.n_sent:
        assert (
            system.transport.n_control_sent <= system.transport.n_sent
        )
