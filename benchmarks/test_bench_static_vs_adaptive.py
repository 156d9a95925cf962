"""Static vs adaptive replication benchmark (section 2.3's argument).

Asserted shapes:
* during the uniform warm-up, static top-level replication holds its
  own (the hierarchical bottleneck is a static phenomenon),
* once hot-spots start shifting, the adaptive protocol clearly beats
  static-only replication,
* combining both is no worse than adaptive alone (static replicas are
  a strict superset of routing state).
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.static_vs_adaptive import EXPERIMENT


@pytest.mark.benchmark(group="static-vs-adaptive")
def test_static_vs_adaptive(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    assert set(results) == {"static", "adaptive", "both"}

    static = results["static"]
    adaptive = results["adaptive"]
    both = results["both"]

    # warm-up (uniform): static holds its own
    assert static["drop_warmup"] <= adaptive["drop_warmup"] + 0.02

    # shifting hot-spots: adaptive wins decisively
    assert adaptive["drop_shifting"] < 0.6 * static["drop_shifting"]

    # only the adaptive modes create replicas during the run
    assert static["replicas_created"] == 0
    assert adaptive["replicas_created"] > 0

    # static + adaptive combined is not materially worse than adaptive
    assert both["drop_shifting"] <= adaptive["drop_shifting"] + 0.03
