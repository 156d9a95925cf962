"""Fig. 4 benchmark: replicas created over time on the N_C namespace.

Paper shapes asserted:
* the system reacts to overload by creating replicas (non-zero series
  for skewed streams),
* creations under skew spike after popularity reshuffles,
* the per-second creation fraction stays small relative to the query
  rate (replication is lightweight: the paper's Fig. 4 y-axis tops out
  at a few percent).
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig4_replicas import EXPERIMENT


@pytest.mark.benchmark(group="fig4")
def test_fig4_replica_creation_over_time(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    assert len(results) == 5
    for name, series in results.items():
        assert all(v >= 0.0 for v in series)
        # lightweight: creations/s stay well below the query rate
        assert max(series, default=0.0) < 0.2, name

    # heavy skew must trigger replication
    heavy = results["uzipf1.50"]
    assert sum(heavy) > 0.0

    # creations under heavy skew continue after the warm-up: the
    # reshuffles keep generating new hot-spots that must be re-replicated
    w = int(scale.warmup) + 4
    assert sum(heavy[w:]) > 0.0
