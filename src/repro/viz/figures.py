"""Regenerate the paper's figures as SVG files.

Runs the experiment harness (at the ``REPRO_SCALE`` size) and renders
each figure with the chart primitives of :mod:`repro.viz.svg`.  Every
figure is produced through its experiment's
:meth:`~repro.experiments.campaign.Experiment.run`, so pointing
``--results`` at an existing artifact directory assembles figures from
stored runs instead of re-simulating::

    python -m repro.viz.figures --out figures
    python -m repro.viz.figures --out figures --results results fig5 fig7
"""

from __future__ import annotations

import math
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.campaign import ResultStore, get_experiment
from repro.experiments.common import Scale, get_scale
from repro.viz.svg import BarChart, LineChart

Store = Optional[ResultStore]


def _run(name: str, scale: Scale, seed: int, store: Store) -> Any:
    return get_experiment(name).run(scale, seed, store=store)


def _series_chart(title: str, x_label: str, y_label: str,
                  results: Dict[str, List[float]]) -> str:
    """One line per named series, x = position in the series."""
    chart = LineChart(title, x_label=x_label, y_label=y_label)
    for name, series in results.items():
        chart.add_series(name, list(enumerate(series)))
    return chart.render()


def _drops_chart(title: str, table: Dict[str, Dict[str, float]]) -> str:
    """One bar group per stream, one bar per preset."""
    streams = list(next(iter(table.values())).keys())
    chart = BarChart(title, categories=streams,
                     y_label="fraction of dropped queries")
    for preset, per_stream in table.items():
        chart.add_series(preset, [per_stream[s] for s in streams])
    return chart.render()


def fig3_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 3 line chart: drop fraction per second, per stream."""
    return _series_chart(
        "Fig. 3 — fraction of queries dropped every second",
        "time (s)", "drop fraction (vs rate)", _run("fig3", scale, seed, store),
    )


def fig4_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 4 line chart: replica creations per second, per stream."""
    return _series_chart(
        "Fig. 4 — replicas created every second (namespace N_C)",
        "time (s)", "creations (vs rate)", _run("fig4", scale, seed, store),
    )


def fig5_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 5 bar chart: drop fraction per (preset, stream) cell."""
    from repro.experiments.fig5_ablation import drop_table

    return _drops_chart(
        "Fig. 5 — dropped queries: base (B), +caching (BC), +replication (BCR)",
        drop_table(_run("fig5", scale, seed, store)),
    )


def fig6_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 6 line chart: mean and max server load over time."""
    results = _run("fig6", scale, seed, store)
    chart = LineChart(
        "Fig. 6 — mean and max server load over time",
        x_label="time (s)", y_label="load (utilisation)",
    )
    for label, series in results.items():
        chart.add_series(f"{label} avg", list(enumerate(series["mean"])))
    # the paper overlays the smoothed maxima; keep within palette budget
    top = list(results)[-1]
    chart.add_series(
        f"{top} max (smoothed)",
        list(enumerate(results[top]["smoothed_max"])),
    )
    return chart.render()


def fig7_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 7 line chart: average replicas created per tree level."""
    return _series_chart(
        "Fig. 7 — average replicas created per namespace level",
        "namespace tree level (0 = root)", "avg replicas per node",
        _run("fig7", scale, seed, store),
    )


def fig8_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 8 line chart: replica creations per bucket, long run."""
    return _series_chart(
        "Fig. 8 — replicas created per bucket over a long run",
        f"bucket ({scale.long_bucket}s)", "replicas created",
        _run("fig8", scale, seed, store),
    )


def fig9_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Fig. 9 line chart: latency, replication, drops vs system size."""
    results = _run("fig9", scale, seed, store)
    sizes = list(results)
    chart = LineChart(
        "Fig. 9 — scalability of latency, replication, and drops",
        x_label="system size (log2 servers)",
        y_label="hops / log2(events)",
    )
    chart.add_series(
        "latency (hops)",
        [(math.log2(n), results[n]["mean_hops"]) for n in sizes],
    )
    chart.add_series(
        "log2(replications)",
        [(math.log2(n), math.log2(max(1.0, results[n]["replicas_created"])))
         for n in sizes],
    )
    chart.add_series(
        "log2(drops)",
        [(math.log2(n), math.log2(max(1.0, results[n]["dropped"])))
         for n in sizes],
    )
    return chart.render()


def fig5_sparse_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Sparse-ownership Fig. 5 variant (not in the combined report)."""
    from repro.experiments.fig5_ablation import SPARSE

    return _drops_chart(
        "Fig. 5 (sparse ownership) — caching aggravates N_S; replication rescues",
        SPARSE.run(scale, seed, store=store),
    )


def heterogeneity_svg(scale: Scale, seed: int = 1, store: Store = None) -> str:
    """Heterogeneity bar chart: drop fraction per population case."""
    results = _run("heterogeneity", scale, seed, store)
    cases = list(results)
    chart = BarChart(
        "Heterogeneity — half the fleet 2.5× slower (§5 claim)",
        categories=cases, y_label="fraction of dropped queries",
    )
    chart.add_series("drop fraction",
                     [results[c]["drop_fraction"] for c in cases])
    return chart.render()


def static_vs_adaptive_svg(
    scale: Scale, seed: int = 1, store: Store = None
) -> str:
    """Static-vs-adaptive bar chart: per-epoch drop fraction per mode."""
    results = _run("static", scale, seed, store)
    modes = list(results)
    chart = BarChart(
        "Static vs adaptive replication (§2.3 argument)",
        categories=modes, y_label="fraction of dropped queries",
    )
    chart.add_series("uniform warm-up",
                     [results[m]["drop_warmup"] for m in modes])
    chart.add_series("shifting hot-spots",
                     [results[m]["drop_shifting"] for m in modes])
    return chart.render()


FIGURES: Dict[str, Callable[..., str]] = {
    "fig3": fig3_svg,
    "fig4": fig4_svg,
    "fig5": fig5_svg,
    "fig6": fig6_svg,
    "fig7": fig7_svg,
    "fig8": fig8_svg,
    "fig9": fig9_svg,
    "fig5_sparse": fig5_sparse_svg,
    "heterogeneity": heterogeneity_svg,
    "static_vs_adaptive": static_vs_adaptive_svg,
}


def render_figures(
    out_dir: str,
    names: Optional[List[str]] = None,
    scale: Optional[Scale] = None,
    seed: int = 1,
    store: Store = None,
) -> List[str]:
    """Render the requested figures (default: all) into ``out_dir``.

    With ``store`` set, runs whose artifacts already exist are read from
    disk instead of re-simulated (and fresh runs are persisted there).

    Returns the written file paths.
    """
    scale = scale or get_scale()
    wanted = names or list(FIGURES)
    unknown = [n for n in wanted if n not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figures {unknown}; choose from {list(FIGURES)}")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in wanted:
        svg = FIGURES[name](scale, seed, store)
        path = out / f"{name}.svg"
        path.write_text(svg)
        written.append(str(path))
    return written


def main(argv: List[str]) -> None:  # pragma: no cover - thin CLI
    out = "figures"
    store: Store = None
    names: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--out":
            out = next(it)
        elif arg == "--results":
            store = ResultStore(next(it))
        else:
            names.append(arg)
    for path in render_figures(out, names or None, store=store):
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main(sys.argv[1:])
