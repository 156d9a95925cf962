"""Section 4.4 benchmark: digests vs oracle under replica churn.

Paper claim asserted: with low replication factors and repeated
high-order hot-spot shifts (many replica creations AND deletions),
inverse-mapping digests keep routing accuracy "within the optimal
range" -- close to an oracle that filters maps with perfectly accurate
information.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.churn_digests import EXPERIMENT


@pytest.mark.benchmark(group="churn")
def test_churn_digest_accuracy(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)

    assert set(results) == {0.125, 0.25, 0.5}
    for rfact, per_mode in results.items():
        assert set(per_mode) == {"digests", "no-digests", "oracle"}

        dig = per_mode["digests"]["stale_hop_rate"]
        orc = per_mode["oracle"]["stale_hop_rate"]
        # digests approximate the oracle's accuracy
        assert dig <= max(2.0 * orc, orc + 0.02), (rfact, dig, orc)

        # queries keep completing under churn in every mode
        for mode, summary in per_mode.items():
            injected = summary["injected"]
            completed = summary["completed"]
            assert completed > 0.8 * injected, (rfact, mode)

    # at the most churn-heavy setting, digest filtering beats having
    # no inverse-mapping information at all
    heavy = results[0.125]
    assert (
        heavy["digests"]["stale_hop_rate"]
        <= heavy["no-digests"]["stale_hop_rate"] + 0.02
    )
