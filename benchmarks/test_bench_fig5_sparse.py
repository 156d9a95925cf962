"""Fig. 5 benchmark at the paper's ownership ratio (8 nodes/server).

With thin per-server ownership the paper's two sharpest claims appear:

* the base system drops a large fraction of queries from the
  hierarchical bottleneck alone ("barely usable"),
* caching *aggravates* N_S -- cached top-of-tree pointers concentrate
  traffic on those nodes' owners -- while replication rescues both.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig5_ablation import SPARSE


@pytest.mark.benchmark(group="fig5")
def test_fig5_sparse_ownership(benchmark):
    results = run_once(benchmark, SPARSE.run, seed=1)

    assert set(results) == {"B", "BC", "BCR"}
    for preset in results:
        assert set(results[preset]) == {"unifS", "uzipfS1.25"}

    # the base system suffers substantially even under uniform load
    assert results["B"]["unifS"] > 0.1

    # caching alone does NOT rescue N_S (the paper reports aggravation;
    # we assert no material improvement)
    assert results["BC"]["unifS"] > 0.8 * results["B"]["unifS"]

    # replication rescues decisively on every stream (>=~3x fewer drops)
    for stream in ("unifS", "uzipfS1.25"):
        assert results["BCR"][stream] < 0.35 * results["B"][stream], stream
        assert results["BCR"][stream] < 0.35 * results["BC"][stream], stream
    assert results["BCR"]["unifS"] < 0.05
