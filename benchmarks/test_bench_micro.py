"""Micro-benchmarks of the simulator's hot kernels.

Unlike the campaign benchmarks (one full experiment per figure), these
time the inner loops a simulation spends its life in -- useful for
tracking performance regressions of the library itself:

* one routing decision (the per-hop cost),
* namespace distance via ancestor-chain prefix scan,
* Bloom digest snapshot tests (the digest-shortcut probe),
* event-engine scheduling throughput,
* Zipf destination sampling,
* a short end-to-end run under the NullSink (collection-free hot path).
"""

import random

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.core import routing
from repro.filters.bloom import BloomFilter
from repro.namespace.generators import balanced_tree
from repro.sim.engine import Engine
from repro.sim.rng import ZipfSampler


@pytest.fixture(scope="module")
def warm_system():
    """A mid-size system with caches and replicas populated."""
    from repro.workload.arrivals import WorkloadDriver
    from repro.workload.streams import cuzipf_stream

    ns = balanced_tree(levels=10)
    cfg = SystemConfig.replicated(n_servers=64, seed=3, cache_slots=16,
                                  digest_probe_limit=2)
    system = build_system(ns, cfg)
    spec = cuzipf_stream(rate=800.0, alpha=1.0, warmup=3, phase=3,
                         n_phases=2, seed=3)
    WorkloadDriver(system, spec).run()
    return system


@pytest.mark.benchmark(group="micro")
def test_micro_route_decision(benchmark, warm_system):
    """Cost of one greedy routing step on a warmed-up peer."""
    peer = warm_system.peers[7]
    rng = random.Random(5)
    n = len(warm_system.ns)
    dests = [rng.randrange(n) for _ in range(256)]
    it = iter(range(1 << 30))

    def step():
        return routing.decide(peer, dests[next(it) % 256])

    result = benchmark(step)
    assert result.action in (routing.RouteAction.FORWARD,
                             routing.RouteAction.RESOLVED)


@pytest.mark.benchmark(group="micro")
def test_micro_namespace_distance(benchmark):
    ns = balanced_tree(levels=14)  # the paper's full N_S
    rng = random.Random(1)
    pairs = [(rng.randrange(len(ns)), rng.randrange(len(ns)))
             for _ in range(512)]
    it = iter(range(1 << 30))

    def dist():
        a, b = pairs[next(it) % 512]
        return ns.distance(a, b)

    result = benchmark(dist)
    assert result >= 0


@pytest.mark.benchmark(group="micro")
def test_micro_bloom_snapshot_test(benchmark):
    bf = BloomFilter.with_capacity(128, fp_rate=0.02)
    bf.add_many(range(0, 256, 2))
    snap = bf.snapshot()
    it = iter(range(1 << 30))

    def probe():
        return bf.test_snapshot(snap, next(it) % 256)

    benchmark(probe)


@pytest.mark.benchmark(group="micro")
def test_micro_bloom_add(benchmark):
    bf = BloomFilter.with_capacity(100_000, fp_rate=0.02)
    it = iter(range(1 << 30))

    def add():
        bf.add(next(it))

    benchmark(add)


@pytest.mark.benchmark(group="micro")
def test_micro_engine_schedule_dispatch(benchmark):
    """Schedule + dispatch one no-op event (the engine's unit cost)."""
    eng = Engine()

    def cycle():
        eng.schedule(eng.now + 0.001, _noop)
        eng.run(max_events=1)

    benchmark(cycle)


def _noop() -> None:
    pass


@pytest.mark.benchmark(group="micro")
def test_micro_run_null_sink(benchmark):
    """A short end-to-end burst with stats collection disabled.

    Tracks the floor cost of the message pipeline itself: every
    component records through the StatsSink protocol, and with the
    NullSink those calls must stay cheap enough that a hot benchmark
    run is not paying for bookkeeping nobody reads.
    """
    from repro.sim.stats import NullSink
    from repro.workload.arrivals import WorkloadDriver
    from repro.workload.streams import uzipf_stream

    ns = balanced_tree(levels=8)
    cfg = SystemConfig.replicated(n_servers=16, seed=9, cache_slots=16)

    def burst():
        system = build_system(ns, cfg, stats=NullSink())
        spec = uzipf_stream(rate=400.0, duration=2.0, alpha=1.0, seed=9)
        WorkloadDriver(system, spec).run()
        return sum(p.n_processed for p in system.peers)

    processed = benchmark(burst)
    assert processed > 0


@pytest.mark.benchmark(group="micro")
def test_micro_zipf_sample(benchmark):
    z = ZipfSampler(32767, alpha=1.0)  # paper-size namespace
    rng = random.Random(2)

    def sample():
        return z.sample(rng)

    result = benchmark(sample)
    assert 0 <= result < 32767
