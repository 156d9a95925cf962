"""Unit tests for the analysis helpers."""

import pytest

from repro.analysis.levels import replicas_per_level
from repro.analysis.series import (
    drop_fraction_series,
    load_series,
    minute_buckets,
    rate_series,
    replica_fraction_series,
)
from repro.analysis.summary import run_summary
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import unif_stream


@pytest.fixture(scope="module")
def ran_system():
    ns = balanced_tree(levels=7)
    cfg = SystemConfig.replicated(n_servers=8, seed=6, digest_probe_limit=1)
    system = build_system(ns, cfg)
    driver = WorkloadDriver(system, unif_stream(rate=400.0, duration=8.0,
                                                seed=6))
    driver.start()
    system.run_until(10.0)
    return system


class TestRateSeries:
    def test_injected_series_sums_to_counter(self, ran_system):
        s = rate_series(ran_system, "injected")
        assert sum(s) == ran_system.stats.n_injected

    def test_completions_series(self, ran_system):
        s = rate_series(ran_system, "completions")
        assert sum(s) == ran_system.stats.n_completed

    def test_unknown_series_raises(self, ran_system):
        with pytest.raises(KeyError):
            rate_series(ran_system, "nope")

    def test_drop_fraction_normalised(self, ran_system):
        s = drop_fraction_series(ran_system, rate=400.0)
        assert all(0.0 <= v <= 1.0 for v in s)

    def test_replica_fraction_requires_positive_rate(self, ran_system):
        with pytest.raises(ValueError):
            replica_fraction_series(ran_system, rate=0.0)


class TestMinuteBuckets:
    def test_aggregation(self):
        per_sec = [1.0] * 120
        assert minute_buckets(per_sec) == [60.0, 60.0]

    def test_ragged_tail(self):
        assert minute_buckets([1.0] * 70) == [60.0, 10.0]

    def test_custom_bucket(self):
        assert minute_buckets([1.0] * 10, seconds_per_bucket=5) == [5.0, 5.0]

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            minute_buckets([1.0], seconds_per_bucket=0)


class TestLoadSeries:
    def test_mean_below_max(self, ran_system):
        mean, mx = load_series(ran_system)
        for m, M in zip(mean, mx):
            assert m <= M + 1e-12


class TestLevels:
    def test_length_matches_depth(self, ran_system):
        per = replicas_per_level(ran_system)
        assert len(per) == ran_system.ns.max_depth + 1

    def test_total_matches_counter(self, ran_system):
        per = replicas_per_level(ran_system, average=False)
        assert sum(per) == ran_system.stats.n_replicas_created


class TestSummary:
    def test_run_summary_keys(self, ran_system):
        s = run_summary(ran_system)
        for key in (
            "drop_fraction", "mean_latency", "mean_hops", "stale_hop_rate",
            "control_to_query_ratio", "replicas_live", "utilization_mean",
        ):
            assert key in s


class TestSummaryPercentiles:
    def test_percentiles_present_and_ordered(self, ran_system):
        from repro.analysis.summary import run_summary

        s = run_summary(ran_system)
        assert 0.0 <= s["latency_p50"] <= s["latency_p95"]
        assert s["latency_p50"] >= 0.0
