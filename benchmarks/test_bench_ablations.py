"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation flips one mechanism and compares against the full
protocol on the same workload:

* **path propagation** -- the paper claims caching the whole path (a
  mixture of near and far nodes) "performs significantly better than
  caching the query endpoints";
* **hysteresis** (creation step 4) -- booking the ideal post-transfer
  loads prevents replica thrashing, so disabling it must not *reduce*
  replica churn;
* **advertisement** -- advertising fresh replicas diverts excess
  traffic quickly; disabling it must not improve drops under a
  hot-spot.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.common import (
    build,
    make_ns,
    rate_for_utilization,
)
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream, unif_stream


def _run(scale, seed=1, alpha=1.25, **overrides):
    ns = make_ns(scale)
    rate = rate_for_utilization(
        0.4, scale.n_servers, hops_estimate=scale.hops_estimate
    )
    spec = cuzipf_stream(
        rate, alpha, warmup=scale.warmup, phase=scale.phase,
        n_phases=scale.n_phases, seed=seed,
    )
    system = build(ns, scale, preset="BCR", seed=seed, **overrides)
    WorkloadDriver(system, spec).run(extra_time=scale.drain)
    return system


@pytest.mark.benchmark(group="ablation")
def test_ablation_path_propagation(benchmark, scale):
    """Path propagation vs endpoint-only caching (paper section 2.4).

    The near+far cache mixture shortens routes.  Needs sparse
    ownership (8 nodes/server, the Fig. 9 ratio) to be visible: with
    dense ownership the structural candidate is already near every
    destination.
    """
    from repro.cluster.builder import build_system
    from repro.cluster.config import SystemConfig
    from repro.namespace.generators import balanced_tree

    def one(path_propagation):
        ns = balanced_tree(levels=10)
        cfg = SystemConfig.caching(
            n_servers=256, seed=1, cache_slots=12,
            path_propagation=path_propagation,
        )
        system = build_system(ns, cfg)
        rate = rate_for_utilization(0.3, 256, hops_estimate=5.0)
        WorkloadDriver(system, unif_stream(rate, 15.0, seed=1)).run()
        return system

    def campaign():
        return one(True), one(False)

    full, endpoint = run_once(benchmark, campaign)
    # path propagation shortens routes (near+far cache mixture)
    assert full.stats.mean_hops < endpoint.stats.mean_hops


@pytest.mark.benchmark(group="ablation")
def test_ablation_hysteresis(benchmark, scale):
    """Creation step 4 prevents replica thrashing."""

    def campaign():
        with_h = _run(scale, alpha=1.0)
        without_h = _run(scale, alpha=1.0, hysteresis_enabled=False)
        return with_h, without_h

    with_h, without_h = run_once(benchmark, campaign)
    created_h = with_h.stats.n_replicas_created
    created_n = without_h.stats.n_replicas_created
    # removing the hysteresis must not make replication calmer;
    # typically it thrashes (more creations for the same workload)
    assert created_n >= 0.8 * created_h
    # both still keep the system usable
    assert with_h.stats.drop_fraction < 0.1
    assert without_h.stats.drop_fraction < 0.15


@pytest.mark.benchmark(group="ablation")
def test_ablation_advertisement(benchmark, scale):
    """Advertising fresh replicas diverts excess traffic quickly."""

    def campaign():
        with_a = _run(scale, alpha=1.5)
        without_a = _run(scale, alpha=1.5, advertisement_enabled=False)
        return with_a, without_a

    with_a, without_a = run_once(benchmark, campaign)
    # without advertisement, hot-spot traffic cannot find new replicas,
    # so drops must not be better than with advertisement (tolerance
    # for stochastic noise)
    assert (
        with_a.stats.drop_fraction
        <= without_a.stats.drop_fraction + 0.02
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_replication_under_uniform_load(benchmark, scale):
    """Even uniform demand needs replication on a hierarchy (section 2.3):
    static tree topology concentrates routing load near the top."""

    def campaign():
        ns = make_ns(scale)
        rate = rate_for_utilization(
            0.4, scale.n_servers, hops_estimate=scale.hops_estimate
        )
        duration = scale.warmup + scale.n_phases * scale.phase
        spec = unif_stream(rate, duration, seed=2)
        bcr = build(ns, scale, preset="BCR", seed=2)
        WorkloadDriver(bcr, spec).run(extra_time=scale.drain)
        return bcr

    bcr = run_once(benchmark, campaign)
    # hierarchical bottleneck: replicas created even under uniform load
    assert bcr.stats.n_replicas_created > 0
    # and they concentrate strictly above the leaves
    levels = bcr.stats.level_replicas
    peak = levels.index(max(levels))
    assert peak < len(levels) - 1


@pytest.mark.benchmark(group="ablation")
def test_ablation_high_water_threshold(benchmark, scale):
    """l_high is the aggressiveness dial (section 3.1: 'a measure of
    the load-imbalance we are willing to tolerate'): lowering it buys
    fewer drops with more replication; raising it does the reverse."""
    from repro.analysis.summary import run_summary

    def campaign():
        return [run_summary(_run(scale, alpha=1.0, l_high=l_high))
                for l_high in (0.5, 0.9)]

    aggressive, lazy = run_once(benchmark, campaign)
    assert aggressive["replicas_created"] > lazy["replicas_created"]
    assert aggressive["drop_fraction"] <= lazy["drop_fraction"] + 0.01


@pytest.mark.benchmark(group="ablation")
def test_ablation_network_jitter(benchmark, scale):
    """The paper uses constant network latency and does not model
    contention; the protocol's conclusions should be robust to latency
    variance.  Adding exponential jitter (mean = 40% of the base delay)
    must not change who wins or collapse the system."""

    def campaign():
        steady = _run(scale, alpha=1.25)
        jittery = _run(scale, alpha=1.25, net_jitter=0.01)
        return steady, jittery

    steady, jittery = run_once(benchmark, campaign)
    # same ballpark drop rate; latency strictly higher with jitter
    assert jittery.stats.drop_fraction < steady.stats.drop_fraction + 0.05
    assert jittery.stats.latency.mean > steady.stats.latency.mean
    # replication still does its job under jitter
    assert jittery.stats.n_replicas_created > 0
