"""Fig. 4: replicas created every second over time (N_C).

Same streams as Fig. 3 but on the file-system namespace.  The paper
plots replica creations per second relative to the query rate: a burst
during hierarchical stabilisation, then a spike at every popularity
reshuffle, decaying as coverage is reached.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.series import replica_fraction_series
from repro.experiments.campaign import Experiment
from repro.experiments.common import Scale, run_point, staggered_streams
from repro.workload.streams import WorkloadSpec


def fig4_stream(
    scale: Scale,
    spec: WorkloadSpec,
    rate: float,
    n_bins: int,
    seed: int,
) -> tuple:
    """One stream of Fig. 4 -- picklable task unit."""
    system = run_point(scale, spec, namespace="C", seed=seed)
    return spec.name, replica_fraction_series(system, rate, n_bins)


def fig4_grid(scale: Scale, seed: int, utilization: float = 0.4):
    """One run per query stream (on N_C)."""
    rate = scale.rate(utilization)
    streams = staggered_streams(scale, rate, seed)
    n_bins = int(streams[0].duration) + 1
    for stream in streams:
        yield stream.name, dict(scale=scale, spec=stream, rate=rate,
                                n_bins=n_bins, seed=seed)


def render_fig4(results: Dict[str, List[float]]) -> None:
    """The combined-report block (``python -m repro fig4``)."""
    from repro.experiments.report import sparkline

    print("series (replicas created per second, vs rate):")
    for name, series in results.items():
        print(f"  {name:>10} {sparkline(series)}  "
              f"(total {sum(series):.4f})")


EXPERIMENT = Experiment(
    name="fig4",
    title="replicas created every second over time (N_C)",
    point=fig4_stream,
    grid=fig4_grid,
    render=render_fig4,
)
"""``{stream: replicas created per second vs rate}``."""
