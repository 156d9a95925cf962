"""Heterogeneity benchmark (paper section 5's closing claim).

Asserted shapes with half the servers 2.5x slower:
* without adaptive replication the heterogeneous system degrades badly,
* the adaptive protocol recovers most of the loss (locally normalized
  load metric: slow servers shed work with no global speed knowledge),
* hosting shifts away from slow servers (their hosted share drops
  below their population share).
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.heterogeneity import EXPERIMENT


@pytest.mark.benchmark(group="heterogeneity")
def test_heterogeneity_adaptation(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    homo = results["homogeneous-BCR"]
    bc = results["heterogeneous-BC"]
    bcr = results["heterogeneous-BCR"]

    # heterogeneity hurts the non-adaptive system badly
    assert bc["drop_fraction"] > 0.05
    # the adaptive protocol recovers most of it
    assert bcr["drop_fraction"] < 0.5 * bc["drop_fraction"]
    # but cannot beat a homogeneous fleet
    assert bcr["drop_fraction"] >= homo["drop_fraction"] - 0.01

    # replication happened, and it moved hosting off the slow half
    assert bcr["replicas_created"] > 0
    assert bcr["slow_hosted_share"] < 0.45  # static share is 0.5

    # latency follows the same ordering
    assert bcr["mean_latency"] < bc["mean_latency"]
