"""Per-namespace-level replica aggregation (paper Fig. 7)."""

from __future__ import annotations

from typing import List

from repro.cluster.system import System


def replicas_per_level(system: System, average: bool = True) -> List[float]:
    """Replicas created per tree level, optionally averaged per node.

    Fig. 7 plots, for each level of N_S, the *average number of
    replicas created for nodes on that level*: total creations at the
    level divided by the node count of the level.
    """
    sizes = system.ns.level_sizes()
    created = system.stats.level_replicas
    out: List[float] = []
    for level, total in enumerate(created):
        n = sizes[level] if level < len(sizes) else 0
        if average:
            out.append(total / n if n else 0.0)
        else:
            out.append(float(total))
    return out
