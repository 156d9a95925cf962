"""Fig. 7 benchmark: average replicas created per namespace level.

Paper shapes asserted:
* the per-level average peaks strictly below the root and strictly
  above the leaves -- level-1/2 pointers live in every cache, so the
  very top is bypassed, while deep levels have too many nodes and too
  little per-node traffic to replicate much (the paper's peak sits at
  level 2 with 26-slot caches; the peak level shifts with the
  cache-to-level-size ratio at reduced scale),
* more load creates more replicas (higher rate dominates level-wise),
* the deepest levels average near zero.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig7_levels import EXPERIMENT


@pytest.mark.benchmark(group="fig7")
def test_fig7_replicas_per_level(benchmark, scale):
    results = run_once(
        benchmark, EXPERIMENT.run, scale=scale, utilizations=(0.2, 0.4), seed=1
    )

    assert set(results) == {"unif@0.2", "uzipf@0.2", "unif@0.4", "uzipf@0.4"}
    depth = len(results["unif@0.4"]) - 1

    busy = results["unif@0.4"]
    assert sum(busy) > 0.0
    peak_level = busy.index(max(busy))
    # hierarchical bottleneck: peak strictly between root and leaves
    assert 0 < peak_level < depth
    # the deepest level barely replicates (per-node average)
    assert busy[depth] <= 0.25 * max(busy)

    # higher load -> at least as many replicas in total
    assert sum(results["unif@0.4"]) >= sum(results["unif@0.2"])
    assert sum(results["uzipf@0.4"]) >= sum(results["uzipf@0.2"])

    # averages are non-negative everywhere
    for series in results.values():
        assert all(v >= 0.0 for v in series)
