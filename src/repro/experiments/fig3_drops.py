"""Fig. 3: fraction of queries dropped every second over time (N_S).

The paper runs, on the balanced-binary-tree namespace at its highest
query rate, a uniform stream and four ``cuzipf`` streams (Zipf orders
0.75..1.50).  The uniform component of each cuzipf stream is extended
in staggered increments so the hierarchical-stabilisation drop spike
and the popularity-reshuffle spikes are visually separated; drops spike
at every instantaneous popularity change and decay within seconds as
the replication protocol adapts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.series import drop_fraction_series
from repro.experiments.campaign import Experiment
from repro.experiments.common import Scale, run_point, staggered_streams
from repro.workload.streams import WorkloadSpec


def fig3_stream(
    scale: Scale,
    spec: WorkloadSpec,
    rate: float,
    n_bins: int,
    preset: str,
    seed: int,
) -> tuple:
    """One stream of Fig. 3 -- picklable task unit."""
    system = run_point(scale, spec, preset=preset, seed=seed)
    return spec.name, drop_fraction_series(system, rate, n_bins)


def fig3_grid(scale: Scale, seed: int, utilization: float = 0.4,
              preset: str = "BCR"):
    """One run per query stream."""
    rate = scale.rate(utilization)
    streams = staggered_streams(scale, rate, seed)
    n_bins = int(streams[0].duration) + 1
    for stream in streams:
        yield stream.name, dict(scale=scale, spec=stream, rate=rate,
                                n_bins=n_bins, preset=preset, seed=seed)


def render_fig3(results: Dict[str, List[float]]) -> None:
    """The combined-report block (``python -m repro fig3``)."""
    from repro.experiments.report import sparkline

    print("series (drop fraction per second, vs rate):")
    for name, series in results.items():
        print(f"  {name:>10} {sparkline(series)}  "
              f"(mean {sum(series) / len(series):.4f})")


EXPERIMENT = Experiment(
    name="fig3",
    title="fraction of queries dropped every second over time (N_S)",
    point=fig3_stream,
    grid=fig3_grid,
    render=render_fig3,
)
"""``{stream: per-second drop fraction vs rate}``; streams ``unif``,
``uzipf0.75`` .. ``uzipf1.50``."""


def reshuffle_times(scale: Scale, alpha_index: int) -> List[float]:
    """The instants at which stream ``alpha_index`` reshuffles popularity."""
    stagger = scale.warmup / 5.0
    start = scale.warmup + (alpha_index + 1) * stagger
    return [start + i * scale.phase for i in range(1, scale.n_phases)]
