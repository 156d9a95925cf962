"""Fault-tolerance experiment (paper sections 1, 2.4, 3.1).

The paper lists fault tolerance among its evaluation goals and argues
it falls out of the load-driven design: servers hosting nodes whose
replicas failed incur more load after the failure and *replicate
again*; caches let routing jump over partitions.

The experiment: run a steady workload, fail a fraction of the servers
at a known instant, optionally recover them later, and measure

* the completion rate before / during / after the failure epoch (the
  share of the lookups each epoch injected that completed),
* replica creations triggered by the failure (the re-replication
  reaction),
* how much of the namespace became unreachable (black holes: every
  host failed),
* the ``failure`` drops by cause: lookups injected at a failed server,
  requests queued there when it failed, responses lost, and forwards
  lost while a live server hosted their ``via`` node or while none
  did, and
* the survivors' mean and maximum load (busy share: services finished
  times the mean service time, over the epoch) before and during the
  failure -- the load that section 3.1 says rises and re-replicates.

Measuring changes no draw and no outcome: the run is the same.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.analysis.series import rate_series
from repro.cluster.failures import FailureInjector, unreachable_nodes
from repro.experiments.campaign import Experiment, only
from repro.experiments.common import Scale, build, make_ns
from repro.sim.stats import SystemStats, TimeSeries
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import uzipf_stream


class _EpochStats(SystemStats):
    """Also bins each completion at its lookup's injection time, ``now
    - latency``, so an epoch's completion rate counts the lookups that
    epoch injected, not those it finished."""

    __slots__ = ("completed_by_injection",)

    def __init__(self, max_depth: int) -> None:
        super().__init__(max_depth)
        self.completed_by_injection = TimeSeries()

    def record_completion(
        self, now: float, latency: float, hops: int, stale_hops: int
    ) -> None:
        super().record_completion(now, latency, hops, stale_hops)
        self.completed_by_injection.add(now - latency)


def resilience_run(
    scale: Scale,
    fail_fraction: float,
    utilization: float,
    alpha: float,
    recover: bool,
    seed: int,
) -> Dict[str, float]:
    """The full failure/recovery timeline -- picklable task unit."""
    ns = make_ns(scale)
    stats = _EpochStats(ns.max_depth)
    system = build(ns, scale, preset="BCR", seed=seed, stats=stats)
    injector = FailureInjector(system)
    rate = scale.rate(utilization)
    phase = scale.phase
    total = 4 * phase
    spec = uzipf_stream(rate, total, alpha=alpha, seed=seed)
    driver = WorkloadDriver(system, spec)
    driver.start()
    failed = system.transport.failed
    injected_at_failed = 0

    def tap(now: float, src: int, dest: int) -> None:
        nonlocal injected_at_failed
        injected_at_failed += src in failed

    system.on_inject = tap

    system.run_until(2 * phase)
    at_fail = [p.n_processed for p in system.peers]
    n_fail = max(1, int(fail_fraction * scale.n_servers))
    victims = set(injector.fail_random(n_fail, rng=random.Random(seed)))
    holes = len(unreachable_nodes(system))

    system.run_until(3 * phase)
    at_recovery = [p.n_processed for p in system.peers]
    if recover:
        injector.recover_all()
    system.run_until(total + scale.drain)

    injected = rate_series(system, "injected", int(total) + 1)
    completed = stats.completed_by_injection.totals(int(total) + 1)
    created = rate_series(system, "replicas_created", int(total) + 1)

    def epoch(series, lo, hi):
        return sum(series[int(lo) : int(hi)])

    def ratio(lo, hi):
        inj = epoch(injected, lo, hi)
        return epoch(completed, lo, hi) / inj if inj else 0.0

    survivors = [p for p in system.peers if p.sid not in victims]
    before = [at_fail[p.sid] * p.service_mean / (2 * phase)
              for p in survivors]
    during = [(at_recovery[p.sid] - at_fail[p.sid]) * p.service_mean / phase
              for p in survivors]
    drops = injector.drops
    return {
        "n_failed": float(n_fail),
        "black_hole_nodes": float(holes),
        "completion_before": ratio(phase / 2, 2 * phase),
        "completion_during": ratio(2 * phase, 3 * phase),
        "completion_after": ratio(3 * phase + phase / 2, 4 * phase),
        "replicas_before": epoch(created, 0, 2 * phase),
        "replicas_during": epoch(created, 2 * phase, 3 * phase),
        "replicas_after": epoch(created, 3 * phase, 4 * phase),
        "recovered": 1.0 if recover else 0.0,
        "failure_drops": float(system.stats.drop_reasons.get("failure", 0)),
        "drops_injected_at_failed": float(injected_at_failed),
        "drops_queued_at_failure": float(drops["queued"]),
        "drops_response_lost": float(drops["response"]),
        "drops_forward_live_via": float(drops["forward_live_via"]),
        "drops_forward_dead_via": float(drops["forward_dead_via"]),
        "survivor_load_mean_before": sum(before) / len(before),
        "survivor_load_max_before": max(before),
        "survivor_load_mean_during": sum(during) / len(during),
        "survivor_load_max_during": max(during),
    }


def resilience_grid(scale: Scale, seed: int, fail_fraction: float = 0.25,
                    utilization: float = 0.3, alpha: float = 1.0,
                    recover: bool = True):
    """A single failure/recovery run.

    Raises:
        ValueError: for ``fail_fraction`` outside (0, 1).
    """
    if not 0.0 < fail_fraction < 1.0:
        raise ValueError("fail_fraction must be in (0, 1)")
    label = "recover" if recover else "no-recovery"
    yield f"fail{fail_fraction:g}:{label}", dict(
        scale=scale, fail_fraction=fail_fraction, utilization=utilization,
        alpha=alpha, recover=recover, seed=seed,
    )


def render_resilience(results: Dict[str, float]) -> None:
    """The combined-report block (``python -m repro resilience``)."""
    for k, v in results.items():
        print(f"  {k:<20} {v:,.3f}")


EXPERIMENT = Experiment(
    name="resilience",
    title="fail a quarter of the fleet mid-run; measure the reaction",
    point=resilience_run,
    grid=resilience_grid,
    render=render_resilience,
    assemble=only,
)
"""A flat dict: completion rates per epoch, replica creations per epoch,
and the black-hole node count at the failure instant.

Timeline (in units of ``scale.phase``): steady traffic for 2 phases,
failure at 2 phases, (optional) recovery at 3 phases, end at 4 phases.
"""
