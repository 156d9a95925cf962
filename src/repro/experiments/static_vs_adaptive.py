"""Static vs adaptive replication (the section 2.3 argument).

The paper: static replication can fix the *hierarchical* bottleneck,
but demand-induced hot-spots move, so an adaptive scheme is required.
We run three systems against the same workload -- a uniform warm-up
followed by shifting Zipf hot-spots:

* ``static``   -- caching + statically replicated top levels, adaptive
  replication disabled;
* ``adaptive`` -- the full BCR protocol;
* ``both``     -- static top-level replicas plus the adaptive protocol.

Static matches adaptive while demand is uniform (both neutralise the
tree-top bottleneck) and falls behind once hot-spots start moving.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.series import rate_series
from repro.analysis.summary import run_summary
from repro.core.static_replication import replicate_top_levels
from repro.experiments.campaign import Experiment
from repro.experiments.common import Scale, build, make_ns
from repro.workload.arrivals import WorkloadDriver

MODES = ("static", "adaptive", "both")


def static_mode_run(
    scale: Scale,
    mode: str,
    utilization: float,
    alpha: float,
    depth_limit: int,
    copies: int,
    seed: int,
) -> Tuple[str, Dict[str, float]]:
    """One replication mode against the shared workload -- task unit."""
    spec = scale.stream(scale.rate(utilization), alpha, seed)
    overrides = {}
    if mode == "static":
        overrides["replication_enabled"] = False
    system = build(make_ns(scale), scale, preset="BCR", seed=seed,
                   **overrides)
    if mode in ("static", "both"):
        replicate_top_levels(
            system, depth_limit=depth_limit, copies=copies, seed=seed
        )
    WorkloadDriver(system, spec).run(extra_time=scale.drain)

    summary = run_summary(system)
    n_bins = int(spec.duration) + 1
    injected = rate_series(system, "injected", n_bins)
    drops = rate_series(system, "drops", n_bins)
    w = int(scale.warmup)
    inj_w, drop_w = sum(injected[:w]), sum(drops[:w])
    inj_z, drop_z = sum(injected[w:]), sum(drops[w:])
    summary["drop_warmup"] = drop_w / inj_w if inj_w else 0.0
    summary["drop_shifting"] = drop_z / inj_z if inj_z else 0.0
    return mode, summary


def static_vs_adaptive_grid(scale: Scale, seed: int, utilization: float = 0.4,
                            alpha: float = 1.25, depth_limit: int = 2,
                            copies: int = 4, modes=MODES):
    """One run per replication mode."""
    for mode in modes:
        yield mode, dict(scale=scale, mode=mode, utilization=utilization,
                         alpha=alpha, depth_limit=depth_limit, copies=copies,
                         seed=seed)


def render_static_vs_adaptive(results: Dict[str, Dict[str, float]]) -> None:
    """The combined-report block (``python -m repro static``)."""
    print(f"  {'mode':>10} {'warm-up':>9} {'shifting':>9} {'replicas':>9}")
    for mode, s in results.items():
        print(f"  {mode:>10} {s['drop_warmup']:>9.4f} "
              f"{s['drop_shifting']:>9.4f} {s['replicas_created']:>9.0f}")


EXPERIMENT = Experiment(
    name="static",
    title="static vs adaptive replication under shifting hot-spots",
    point=static_mode_run,
    grid=static_vs_adaptive_grid,
    render=render_static_vs_adaptive,
)
"""``{mode: run_summary}`` with per-epoch drop fractions added:
``drop_warmup`` for the uniform prefix, ``drop_shifting`` for the Zipf
phases."""
