"""Table 1 benchmark: live-system state audit.

Runs a workload until caches are warm and replicas exist, then audits
every server's per-node state against the paper's Table 1 matrix
(owned / replicated / neighboring / cached x name / map / data / meta /
context).  The audit itself raises on any deviation; the assertions
check the population makes sense.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.table1_state import EXPERIMENT


@pytest.mark.benchmark(group="table1")
def test_table1_state_audit(benchmark, scale):
    counts = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    n_nodes = 2 ** (scale.ns_levels + 1) - 1
    # every node owned exactly once across the system
    assert counts["owned"] == n_nodes
    # a warmed-up replicated system has replicas and cached pointers
    assert counts["replicated"] > 0
    assert counts["cached"] > 0
    # neighbor contexts outnumber owned nodes (every owned node pins
    # its neighbors; overlap only within a server)
    assert counts["neighboring"] > 0
    assert counts["none"] == 0
