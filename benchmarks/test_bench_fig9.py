"""Fig. 9 benchmark: scalability with system size.

Paper shapes asserted, across a doubling sweep of server counts with
nodes-per-server, utilisation, and cache/Rmap scaling held to the
paper's recipe:

* query latency grows far slower than system size (logarithmic-ish:
  bounded by a constant factor per doubling),
* replication events grow with system size (roughly linearly),
* dropped queries do not explode super-linearly relative to the query
  volume (drops per injected query stay bounded).
"""

import math

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig9_scalability import EXPERIMENT


@pytest.mark.benchmark(group="fig9")
def test_fig9_scalability(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    sizes = list(results)
    assert len(sizes) >= 3
    growth = sizes[-1] / sizes[0]

    # latency scales logarithmically-ish, not linearly
    lat = [results[n]["mean_latency"] for n in sizes]
    assert all(v > 0 for v in lat)
    assert lat[-1] / lat[0] < growth / 2
    # hop counts grow by at most ~1 per doubling plus slack
    hops = [results[n]["mean_hops"] for n in sizes]
    assert hops[-1] - hops[0] <= math.log2(growth) + 2.0

    # replication events grow with size
    repl = [results[n]["replicas_created"] for n in sizes]
    assert repl[-1] >= repl[0]
    assert repl[-1] > 0

    # drops grow with size (lambda is proportional to size while the
    # per-node hot-spot concentrates on fixed-capacity servers -- the
    # paper's "approaches linearity"), but stay bounded: small sizes
    # nearly drop-free, the largest sizes still serve the majority
    half = len(sizes) // 2
    for n in sizes[: half + 1]:
        frac = results[n]["drop_fraction_steady"]
        assert frac < 0.2, (n, frac)
    for n in sizes:
        frac = results[n]["drop_fraction_steady"]
        assert frac < 0.45, (n, frac)
