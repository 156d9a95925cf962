"""A generic parameter sweep over the protocol's knobs, and its tests.

The paper hand-picks a handful of parameter points (Rfact in the churn
study, cache/Rmap growth in Fig. 9).  :func:`sweep` generalises that:
run the same workload across any set of :class:`SystemConfig` field
values and collect the summaries.
"""

import dataclasses

import pytest

from repro.analysis.summary import run_summary
from repro.cluster.config import SystemConfig
from repro.experiments.common import Scale, run_point


def sweep(field, values, scale, preset="BCR", utilization=0.4, alpha=1.0,
          seed=0):
    """Run the standard workload once per value of ``field``.

    Returns ``{value: run_summary}`` in the order given; raises
    ``ValueError`` for an unknown config field or empty values.
    """
    if field not in {f.name for f in dataclasses.fields(SystemConfig)}:
        raise ValueError(f"unknown SystemConfig field {field!r}")
    if not values:
        raise ValueError("values must be non-empty")
    spec = scale.stream(scale.rate(utilization), alpha, seed)
    return {
        value: run_summary(run_point(scale, spec, preset=preset, seed=seed,
                                     **{field: value}))
        for value in values
    }

MICRO = Scale(
    name="tiny", ns_levels=7, nc_nodes=500, n_servers=8,
    warmup=2.0, phase=2.0, n_phases=1, drain=2.0, cache_slots=8,
    digest_probe_limit=1,
)


class TestSweep:
    def test_one_summary_per_value(self):
        results = sweep("rmap", [2, 4], scale=MICRO, seed=1)
        assert list(results) == [2, 4]
        for summary in results.values():
            assert "drop_fraction" in summary
            assert "replicas_created" in summary

    def test_l_high_controls_replication_aggressiveness(self):
        """Lower high-water threshold => at least as many replicas."""
        results = sweep("l_high", [0.4, 0.95], scale=MICRO,
                        utilization=0.45, alpha=1.0, seed=2)
        assert (
            results[0.4]["replicas_created"]
            >= results[0.95]["replicas_created"]
        )

    def test_replication_toggle_sweep(self):
        results = sweep("replication_enabled", [False, True], scale=MICRO,
                        seed=3)
        assert results[False]["replicas_created"] == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            sweep("no_such_knob", [1], scale=MICRO)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep("rmap", [], scale=MICRO)

    def test_deterministic(self):
        a = sweep("rfact", [1.0], scale=MICRO, seed=4)
        b = sweep("rfact", [1.0], scale=MICRO, seed=4)
        assert a == b
