"""Fig. 7: average replicas created per namespace level (N_S).

For each level of the balanced binary tree, the average number of
replicas created for nodes on that level, under uniform and Zipf query
streams at several arrival rates.  The paper's signature shape: the
peak sits at level 2, *not* at the root -- pointers to the handful of
level-1/2 nodes stay in every server's cache, so many routes shortcut
past the top of the tree, while level-2 nodes still aggregate enough
traffic to overload their hosts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.levels import replicas_per_level
from repro.experiments.campaign import Experiment
from repro.experiments.common import Scale, run_point


def fig7_point(scale: Scale, util: float, kind: str, alpha: float,
               seed: int) -> tuple:
    """One (rate, stream-kind) cell of Fig. 7 -- picklable task unit."""
    spec = scale.stream(scale.rate(util), alpha if kind == "uzipf" else 0.0,
                        seed)
    system = run_point(scale, spec, seed=seed)
    return f"{kind}@{util:g}", replicas_per_level(system)


def fig7_grid(scale: Scale, seed: int, utilizations=(0.1, 0.2, 0.4),
              alpha: float = 1.0):
    """One run per (rate, stream kind)."""
    for util in utilizations:
        for kind in ("unif", "uzipf"):
            yield f"{kind}@{util:g}", dict(scale=scale, util=util, kind=kind,
                                           alpha=alpha, seed=seed)


def render_fig7(results: Dict[str, List[float]]) -> None:
    """The combined-report block (``python -m repro fig7``)."""
    levels = len(next(iter(results.values())))
    print("  level " + " ".join(f"{k:>11}" for k in results))
    for lvl in range(levels):
        row = " ".join(f"{results[k][lvl]:11.2f}" for k in results)
        print(f"  {lvl:>5} {row}")


EXPERIMENT = Experiment(
    name="fig7",
    title="average replicas created per namespace level (N_S)",
    point=fig7_point,
    grid=fig7_grid,
    render=render_fig7,
)
"""``{"{unif|uzipf}@util": average replicas created per level}`` (index
= tree depth, 0 = root)."""
