"""Heterogeneity experiment (paper section 5, closing argument).

"A recent analysis of two popular P2P file sharing systems concludes
that the most distinguishing feature of these systems is their
heterogeneity. We believe that the adaptive nature of our replication
model makes it a first-class candidate for exploiting system
heterogeneity."

The experiment quantifies that: half the servers are made k-times
slower, and the same skewed workload is run with and without the
adaptive protocol.  Because the load metric is *locally normalized*
(busy fraction of each server's own capacity), slow servers hit the
high-water threshold sooner and shed their hot nodes toward fast ones
-- no global knowledge of machine speeds required.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.summary import run_summary
from repro.experiments.campaign import Experiment
from repro.experiments.common import Scale, run_point


def heterogeneity_case(
    scale: Scale,
    label: str,
    preset: str,
    slow_fraction: float,
    slow_factor: float,
    utilization: float,
    alpha: float,
    seed: int,
) -> Tuple[str, Dict[str, float]]:
    """One population case -- picklable task unit.

    ``slow_fraction == 0`` is the homogeneous control (no overrides).
    """
    spec = scale.stream(scale.rate(utilization), alpha, seed)
    overrides: Dict[str, float] = {}
    if slow_fraction > 0.0:
        overrides = dict(slow_server_fraction=slow_fraction,
                         slow_factor=slow_factor)
    system = run_point(scale, spec, preset=preset, seed=seed, **overrides)
    summary = run_summary(system)
    slow = [p for p in system.peers
            if p.service_mean > system.cfg.service_mean]
    hosted_slow = sum(len(p.store.hosted_list) for p in slow)
    hosted_all = sum(len(p.store.hosted_list) for p in system.peers)
    summary["slow_hosted_share"] = (
        hosted_slow / hosted_all if hosted_all else 0.0
    )
    summary["n_slow"] = float(len(slow))
    return label, summary


def heterogeneity_grid(scale: Scale, seed: int, slow_fraction: float = 0.5,
                       slow_factor: float = 2.5, utilization: float = 0.35,
                       alpha: float = 1.0):
    """The homogeneous control plus two mixed fleets."""
    for label, preset, fraction in (
        ("homogeneous-BCR", "BCR", 0.0),
        ("heterogeneous-BC", "BC", slow_fraction),
        ("heterogeneous-BCR", "BCR", slow_fraction),
    ):
        yield label, dict(scale=scale, label=label, preset=preset,
                          slow_fraction=fraction, slow_factor=slow_factor,
                          utilization=utilization, alpha=alpha, seed=seed)


def render_heterogeneity(results: Dict[str, Dict[str, float]]) -> None:
    """The combined-report block (``python -m repro heterogeneity``)."""
    print(f"  {'case':>20} {'drop%':>7} {'slow hosted %':>14}")
    for label, s in results.items():
        print(f"  {label:>20} {100 * s['drop_fraction']:>7.2f} "
              f"{100 * s['slow_hosted_share']:>14.1f}")


EXPERIMENT = Experiment(
    name="heterogeneity",
    title="adaptive replication on a half-slow fleet",
    point=heterogeneity_case,
    grid=heterogeneity_grid,
    render=render_heterogeneity,
)
"""``{case: run_summary}`` for ``homogeneous-BCR``, ``heterogeneous-BC``
and ``heterogeneous-BCR``, each with ``slow_hosted_share`` -- the
fraction of hosted node instances sitting on slow servers at the end
(adaptive replication should push it below the static share)."""
