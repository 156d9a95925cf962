"""Fig. 9: scalability with system size.

Server count doubles across the sweep (paper: 2^9..2^14) with 8 nodes
per server (balanced binary tree), cache size and Rmap growing
logarithmically, Rfact fixed at 2, and the arrival rate proportional to
system size (constant utilisation).  The paper reports query latency
scaling logarithmically, replication events linearly, and drops
approaching proportionality.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.series import rate_series
from repro.analysis.summary import run_summary
from repro.cluster.config import SystemConfig
from repro.experiments.campaign import Experiment, RunSpec
from repro.experiments.common import (
    Scale,
    rate_for_utilization,
    run_sharded_workload,
)
from repro.namespace.generators import balanced_tree
from repro.workload.streams import cuzipf_stream


def sweep_sizes(scale: Scale) -> List[int]:
    """Server-count sweep for the given scale (powers of two)."""
    if scale.name == "million":
        # a single point: 1,024 servers x 1,024 nodes/server (~10^6)
        return [2**10]
    if scale.name == "paper":
        return [2**k for k in range(9, 15)]
    if scale.name == "small":
        return [2**k for k in range(5, 10)]
    return [2**k for k in range(4, 8)]


def fig9_point(
    scale: Scale,
    n_servers: int,
    base_k: int,
    utilization: float,
    alpha: float,
    duration: Optional[float],
    seed: int,
) -> Dict[str, float]:
    """One system size of the Fig. 9 sweep -- picklable task unit."""
    k = int(math.log2(n_servers))
    # fig9_nodes_per_server nodes per server (paper: 8): a binary tree
    # with nodes_per_server * 2^k - 1 nodes
    ns = balanced_tree(
        levels=k + int(math.log2(scale.fig9_nodes_per_server)) - 1
    )
    cache_slots = scale.cache_slots + 2 * (k - base_k)
    rmap = 2 + (k - base_k)
    cfg = SystemConfig.replicated(
        n_servers=n_servers,
        seed=seed,
        cache_slots=cache_slots,
        rmap=rmap,
        rfact=2.0,
    )
    rate = rate_for_utilization(
        utilization, n_servers, hops_estimate=scale.hops_estimate
    )
    run_time = duration if duration is not None else max(
        10.0, scale.phase * 2
    )
    spec = cuzipf_stream(
        rate, alpha, warmup=run_time / 3, phase=run_time / 3,
        n_phases=2, seed=seed,
    )
    # honours REPRO_SHARDS: >1 runs this point on the windowed
    # multi-engine coordinator, bit-identical to serial
    system = run_sharded_workload(ns, cfg, spec, spec.duration + scale.drain)
    summary = run_summary(system)
    summary["latency_hops"] = summary["mean_hops"]
    summary["rate"] = rate
    summary["nodes"] = float(len(ns))
    # steady-state drop fraction: second half of the run, after the
    # cold hierarchical stabilisation (whose absolute cost grows
    # with system size and would otherwise dominate the average)
    n_bins = int(spec.duration) + 1
    half = n_bins // 2
    injected = rate_series(system, "injected", n_bins)[half:]
    drops = rate_series(system, "drops", n_bins)[half:]
    inj = sum(injected)
    summary["drop_fraction_steady"] = sum(drops) / inj if inj else 0.0
    return summary


def fig9_grid(scale: Scale, seed: int, utilization: float = 0.3,
              alpha: float = 1.0, duration: Optional[float] = None):
    """One run per system size."""
    sizes = sweep_sizes(scale)
    base_k = int(math.log2(sizes[0]))
    for n_servers in sizes:
        yield f"n{n_servers}", dict(
            scale=scale, n_servers=n_servers, base_k=base_k,
            utilization=utilization, alpha=alpha, duration=duration,
            seed=seed,
        )


def assemble_fig9(
    specs: Sequence[RunSpec], payloads: Sequence[Any]
) -> Dict[int, Dict[str, float]]:
    """Rebuild ``{n_servers: summary}`` keyed in sweep order."""
    return {
        spec.params["n_servers"]: summary
        for spec, summary in zip(specs, payloads)
    }


def render_fig9(results: Dict[int, Dict[str, float]]) -> None:
    """The combined-report block (``python -m repro fig9``)."""
    print(f"  {'servers':>8} {'hops':>6} {'latency(ms)':>12} "
          f"{'replications':>13} {'drop%':>7}")
    for n, s in results.items():
        print(f"  {n:>8} {s['mean_hops']:>6.2f} "
              f"{s['mean_latency'] * 1000:>12.1f} "
              f"{s['replicas_created']:>13.0f} "
              f"{100 * s['drop_fraction']:>7.2f}")


EXPERIMENT = Experiment(
    name="fig9",
    title="scalability with system size (latency, replication, drops)",
    point=fig9_point,
    grid=fig9_grid,
    render=render_fig9,
    assemble=assemble_fig9,
)
"""``{n_servers: run_summary}`` with added keys ``latency_hops``,
``rate``, ``nodes`` and ``drop_fraction_steady``."""
