"""Fault-tolerance experiment (paper sections 1, 2.4, 3.1).

The paper lists fault tolerance among its evaluation goals and argues
it falls out of the load-driven design: servers hosting nodes whose
replicas failed incur more load after the failure and *replicate
again*; caches let routing jump over partitions.

The experiment: run a steady workload, fail a fraction of the servers
at a known instant, optionally recover them later, and measure

* the completion rate before / during / after the failure epoch,
* replica creations triggered by the failure (the re-replication
  reaction), and
* how much of the namespace became unreachable (black holes: every
  host failed).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.analysis.series import rate_series
from repro.cluster.failures import FailureInjector, unreachable_nodes
from repro.experiments.campaign import Experiment, only
from repro.experiments.common import Scale, build, make_ns
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import uzipf_stream


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
    system = build(ns, scale, preset="BCR", seed=seed)
    injector = FailureInjector(system)
    rate = scale.rate(utilization)
    phase = scale.phase
    total = 4 * phase
    spec = uzipf_stream(rate, total, alpha=alpha, seed=seed)
    driver = WorkloadDriver(system, spec)
    driver.start()

    system.run_until(2 * phase)
    n_fail = max(1, int(fail_fraction * scale.n_servers))
    injector.fail_random(n_fail, rng=random.Random(seed))
    holes = len(unreachable_nodes(system))

    if recover:
        system.run_until(3 * phase)
        injector.recover_all()
    system.run_until(total + scale.drain)

    injected = rate_series(system, "injected", int(total) + 1)
    completed = rate_series(system, "completions", int(total) + 1)
    created = rate_series(system, "replicas_created", int(total) + 1)

    def epoch(series, lo, hi):
        return sum(series[int(lo) : int(hi)])

    def ratio(lo, hi):
        inj = epoch(injected, lo, hi)
        return epoch(completed, lo, hi) / inj if inj else 0.0

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
