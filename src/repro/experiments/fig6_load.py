"""Fig. 6: utilisation and load balance over time.

Left panel: per-second mean and maximum server load for ``cuzipf1.00``
streams at three arrival rates (the paper's utilisation targets).
Right panel: the per-second maximum averaged over an 11-second sliding
window -- showing that highly-loaded servers are transient and that
load balance defined over larger intervals approaches the mean.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.series import load_series
from repro.experiments.campaign import Experiment, RunSpec
from repro.experiments.common import Scale, UTILIZATION_TARGETS, run_point
from repro.sim.stats import WindowAverager


def fig6_point(scale: Scale, util: float, alpha: float, seed: int) -> tuple:
    """One utilisation point of Fig. 6 -- picklable task unit."""
    rate = scale.rate(util)
    spec = scale.stream(rate, alpha, seed)
    system = run_point(scale, spec, seed=seed)
    mean, mx = load_series(system, n_bins=int(spec.duration) + 1)
    return util, rate, mean, mx


def fig6_grid(scale: Scale, seed: int, utilizations=UTILIZATION_TARGETS,
              alpha: float = 1.0):
    """One run per utilisation target."""
    for util in utilizations:
        yield f"util{util:g}", dict(scale=scale, util=util, alpha=alpha,
                                    seed=seed)


def assemble_fig6(
    specs: Sequence[RunSpec], payloads: Sequence[Any]
) -> Dict[str, Dict[str, List[float]]]:
    """Rebuild the per-utilisation series (smoothing happens here)."""
    results: Dict[str, Dict[str, List[float]]] = {}
    for spec, (util, rate, mean, mx) in zip(specs, payloads):
        scale: Scale = spec.params["scale"]
        results[f"util{util:g}"] = {
            "mean": mean,
            "max": mx,
            "smoothed_max": WindowAverager.smooth(mx, scale.smooth_window),
            "rate": [rate],
        }
    return results


def render_fig6(results: Dict[str, Dict[str, List[float]]]) -> None:
    """The combined-report block (``python -m repro fig6``)."""
    for label, series in results.items():
        n = len(series["mean"])
        print(f"  {label}: rate={series['rate'][0]:.0f}/s "
              f"mean={sum(series['mean']) / n:.3f} "
              f"max(avg)={sum(series['max']) / n:.3f} "
              f"smoothed-max(peak)={max(series['smoothed_max']):.3f}")


EXPERIMENT = Experiment(
    name="fig6",
    title="utilisation and load balance over time",
    point=fig6_point,
    grid=fig6_grid,
    render=render_fig6,
    assemble=assemble_fig6,
)
"""``{util label: {"mean", "max", "smoothed_max": per-second series,
"rate": [rate]}}``."""
