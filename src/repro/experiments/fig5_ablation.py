"""Fig. 5: fraction of dropped queries -- B vs BC vs BCR across streams.

The paper's headline ablation: the base system (B), base + caching
(BC), and base + caching + replication (BCR) are run against ten query
streams -- ``unif`` and ``uzipf{0.75,1.00,1.25,1.50}`` on each of N_S
(suffix S) and N_C (suffix C).  Replication keeps drops near zero;
without it a large fraction of queries is dropped "to a point where the
system is barely usable", and caching alone *aggravates* N_S while
slightly helping N_C.

The 30 runs are independent; set ``REPRO_WORKERS`` to fan them out
across cores (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.summary import run_summary
from repro.cluster.builder import build_system
from repro.experiments.campaign import Experiment, nested
from repro.experiments.common import (
    PRESET_CONFIGS,
    Scale,
    ZIPF_ORDERS,
    rate_for_utilization,
    run_point,
)
from repro.namespace.generators import balanced_tree
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream, unif_stream

PRESETS = ("B", "BC", "BCR")

#: (label, namespace kind, alpha); alpha 0 = uniform
STREAMS: Tuple[Tuple[str, str, float], ...] = tuple(
    (f"unif{suffix}", suffix, 0.0) for suffix in ("S", "C")
) + tuple(
    (f"uzipf{suffix}{alpha:.2f}", suffix, alpha)
    for suffix in ("S", "C")
    for alpha in ZIPF_ORDERS
)


def fig5_cell(
    scale: Scale,
    preset: str,
    label: str,
    ns_kind: str,
    alpha: float,
    utilization: float,
    seed: int,
) -> Tuple[str, str, Dict[str, float]]:
    """One (preset, stream) cell of Fig. 5 -- picklable task unit."""
    spec = scale.stream(scale.rate(utilization), alpha, seed)
    system = run_point(scale, spec, namespace=ns_kind, preset=preset,
                       seed=seed)
    return preset, label, run_summary(system)


def fig5_grid(scale: Scale, seed: int, utilization: float = 0.4,
              presets=PRESETS):
    """One run per (preset, stream) cell."""
    for preset in presets:
        for label, kind, alpha in STREAMS:
            yield f"{preset}:{label}", dict(
                scale=scale, preset=preset, label=label, ns_kind=kind,
                alpha=alpha, utilization=utilization, seed=seed,
            )


def drop_table(results) -> Dict[str, Dict[str, float]]:
    """Collapse Fig. 5's result to ``{preset: {stream: drop fraction}}``."""
    return {
        preset: {s: summ["drop_fraction"] for s, summ in streams.items()}
        for preset, streams in results.items()
    }


def print_drops(table: Dict[str, Dict[str, float]]) -> None:
    """A ``{preset: {stream: drop fraction}}`` table as a matrix."""
    from repro.experiments.report import format_matrix

    streams = list(next(iter(table.values())).keys())
    print(format_matrix(
        row_labels=list(table),
        col_labels=streams,
        values=[[table[p][s] for s in streams] for p in table],
        width=11,
    ))


def render_fig5(results: Dict[str, Dict[str, Dict[str, float]]]) -> None:
    """The combined-report block (``python -m repro fig5``)."""
    print_drops(drop_table(results))


EXPERIMENT = Experiment(
    name="fig5",
    title="dropped queries: base (B) vs +caching (BC) vs +replication (BCR)",
    point=fig5_cell,
    grid=fig5_grid,
    render=render_fig5,
    assemble=nested,
)
"""``{preset: {stream: run_summary}}``; the drop fractions inside are
what the paper's bar chart plots."""


def sparse_cell(
    n_servers: int,
    levels: int,
    preset: str,
    alpha: float,
    utilization: float,
    duration: float,
    seed: int,
) -> Tuple[str, str, float]:
    """One (preset, stream) cell at sparse ownership -- task unit."""
    cfg = PRESET_CONFIGS[preset](
        n_servers=n_servers, seed=seed, cache_slots=12, digest_probe_limit=1,
    )
    system = build_system(balanced_tree(levels=levels), cfg)
    rate = rate_for_utilization(utilization, n_servers, hops_estimate=5.0)
    if alpha == 0.0:
        label, spec = "unifS", unif_stream(rate, duration, seed=seed)
    else:
        label = f"uzipfS{alpha:.2f}"
        spec = cuzipf_stream(
            rate, alpha, warmup=duration / 2, phase=duration / 4,
            n_phases=2, seed=seed,
        )
    WorkloadDriver(system, spec).run(extra_time=3.0)
    return preset, label, system.stats.drop_fraction


def sparse_grid(scale, seed: int, n_servers: int = 256, levels: int = 10,
                utilization: float = 0.3, duration: float = 20.0,
                presets=PRESETS, alphas=(0.0, 1.25)):
    """One run per (preset, alpha); ``scale`` is not used."""
    for preset in presets:
        for alpha in alphas:
            yield f"{preset}:{alpha:g}", dict(
                n_servers=n_servers, levels=levels, preset=preset,
                alpha=alpha, utilization=utilization, duration=duration,
                seed=seed,
            )


SPARSE = Experiment(
    name="fig5_sparse",
    title="Fig. 5 on N_S at the paper's ownership ratio (8 nodes/server)",
    point=sparse_cell,
    grid=sparse_grid,
    render=print_drops,
    assemble=nested,
)
"""Fig. 5 on N_S with *sparse* ownership: ``{preset: {stream: drop
fraction}}``.

The paper's two sharpest Fig. 5 effects need thin per-server ownership
(1,000 servers for 32,767 nodes) to show: (i) the base system drops a
large fraction of queries from the hierarchical bottleneck alone, and
(ii) caching *aggravates* N_S -- cached pointers to the top of the tree
concentrate traffic onto those nodes' owners.  At the dense tiny/small
scales those owners also own dozens of other nodes and absorb the load,
so this variant rebuilds the paper's ownership ratio directly (compare
Fig. 9's 8-nodes-per-server setup) and ignores the scale.  It is not in
the combined report.
"""
