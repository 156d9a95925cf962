"""Fig. 5 benchmark: B vs BC vs BCR drop fractions across ten streams.

Paper shapes asserted:
* replication (BCR) beats both B and BC on every heavily skewed stream,
  by a large factor at the heaviest skew,
* drops grow with Zipf order for the base system,
* uniform streams are nearly drop-free for BCR,
* without replication the heaviest skew drops a substantial fraction
  ("barely usable" at paper scale).
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig5_ablation import EXPERIMENT, drop_table


@pytest.mark.benchmark(group="fig5")
def test_fig5_system_comparison(benchmark, scale):
    results = run_once(benchmark, EXPERIMENT.run, scale=scale, seed=1)
    table = drop_table(results)

    assert set(table) == {"B", "BC", "BCR"}
    for preset in table:
        assert len(table[preset]) == 10

    for suffix in ("S", "C"):
        for alpha in ("1.25", "1.50"):
            stream = f"uzipf{suffix}{alpha}"
            assert table["BCR"][stream] <= table["B"][stream], stream
            assert table["BCR"][stream] <= table["BC"][stream], stream
        heavy = f"uzipf{suffix}1.50"
        # decisive win at the heaviest skew
        assert table["BCR"][heavy] < 0.5 * table["B"][heavy], heavy

    # base system: drops grow with skew on N_S
    b = table["B"]
    assert (
        b["uzipfS0.75"] <= b["uzipfS1.00"] <= b["uzipfS1.25"]
        <= b["uzipfS1.50"]
    )
    # the base system suffers substantially under heavy skew
    assert b["uzipfS1.50"] > 0.05

    # uniform streams nearly drop-free under full protocol
    assert table["BCR"]["unifS"] < 0.02
    assert table["BCR"]["unifC"] < 0.02
