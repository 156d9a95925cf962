"""Smoke tests for the experiment harness at micro scale.

Each experiment's ``Experiment.run`` is executed on a deliberately tiny
Scale so the whole module stays fast; shape assertions at real scales
live in benchmarks/.
"""

import pytest

from repro.experiments.campaign import get_experiment
from repro.experiments.common import (
    SCALES,
    Scale,
    get_scale,
    rate_for_utilization,
)

MICRO = Scale(
    name="tiny",  # reuses the tiny sweep bounds in fig9
    ns_levels=7,
    nc_nodes=600,
    n_servers=8,
    warmup=2.0,
    phase=2.0,
    n_phases=2,
    drain=2.0,
    cache_slots=8,
    digest_probe_limit=1,
    long_run=24.0,
    long_bucket=6,
)


class TestCommon:
    def test_get_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "tiny"

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_scale().name == "small"

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError):
            get_scale("nope")

    def test_scales_registered(self):
        assert set(SCALES) == {"tiny", "small", "paper", "million"}

    def test_rate_for_utilization(self):
        # util = rate * hops * T / N
        rate = rate_for_utilization(0.4, 1000, service_mean=0.005,
                                    hops_estimate=4.0)
        assert rate == pytest.approx(0.4 * 1000 / 0.02)

    def test_rate_rejects_bad_util(self):
        with pytest.raises(ValueError):
            rate_for_utilization(0.0, 10)

    def test_smooth_window_scales_with_phase(self):
        assert SCALES["paper"].smooth_window == 11
        assert SCALES["tiny"].smooth_window >= 3
        assert SCALES["tiny"].smooth_window % 2 == 1


class TestFig3:
    def test_runs_and_shapes(self):
        results = get_experiment("fig3").run(MICRO, seed=1)
        assert set(results) == {
            "unif", "uzipf0.75", "uzipf1.00", "uzipf1.25", "uzipf1.50"
        }
        for series in results.values():
            assert all(v >= 0.0 for v in series)

    def test_reshuffle_times(self):
        from repro.experiments.fig3_drops import reshuffle_times

        times = reshuffle_times(MICRO, 0)
        assert len(times) == MICRO.n_phases - 1


class TestFig4:
    def test_runs(self):
        results = get_experiment("fig4").run(MICRO, seed=1)
        assert len(results) == 5
        assert all(all(v >= 0.0 for v in s) for s in results.values())


class TestFig5:
    def test_runs_with_subset(self):
        from repro.experiments.fig5_ablation import drop_table

        results = get_experiment("fig5").run(MICRO, seed=1, presets=("B", "BCR"))
        table = drop_table(results)
        assert set(table) == {"B", "BCR"}
        assert len(table["B"]) == 10  # 2 namespaces x 5 streams
        for streams in table.values():
            assert all(0.0 <= v <= 1.0 for v in streams.values())


class TestFig6:
    def test_runs(self):
        results = get_experiment("fig6").run(MICRO, utilizations=(0.3,), seed=1)
        (label, series), = results.items()
        assert label == "util0.3"
        assert len(series["mean"]) == len(series["max"])
        assert len(series["smoothed_max"]) == len(series["max"])
        for m, M in zip(series["mean"], series["max"]):
            assert m <= M + 1e-12


class TestFig7:
    def test_runs(self):
        results = get_experiment("fig7").run(MICRO, utilizations=(0.4,), seed=1)
        assert set(results) == {"unif@0.4", "uzipf@0.4"}
        for series in results.values():
            assert len(series) == MICRO.ns_levels + 1


class TestFig8:
    def test_runs_and_decay_metric(self):
        from repro.experiments.fig8_stabilization import decay_ratio

        results = get_experiment("fig8").run(MICRO, seed=1)
        assert set(results) == {"unifS", "uzipfS1.00", "unifC", "uzipfC1.00"}
        for buckets in results.values():
            assert len(buckets) >= 4
            assert decay_ratio(buckets) >= 0.0

    def test_decay_ratio_validation(self):
        from repro.experiments.fig8_stabilization import decay_ratio

        with pytest.raises(ValueError):
            decay_ratio([1.0, 2.0])
        assert decay_ratio([10.0, 5.0, 2.0, 1.0]) == pytest.approx(0.1)


class TestFig9:
    def test_runs(self):
        from repro.experiments.fig9_scalability import sweep_sizes

        sizes = sweep_sizes(MICRO)
        results = get_experiment("fig9").run(MICRO, duration=4.0, seed=1)
        assert list(results) == sizes
        for n, summary in results.items():
            assert summary["nodes"] >= 8 * n - 1
            assert summary["rate"] > 0

    def test_sweep_doubles(self):
        from repro.experiments.fig9_scalability import sweep_sizes

        for scale in SCALES.values():
            sizes = sweep_sizes(scale)
            assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))


class TestChurn:
    def test_runs_with_subset(self):
        results = get_experiment("churn").run(
            MICRO, rfacts=(0.25,), modes=("digests", "oracle"), seed=1
        )
        per_mode = results[0.25]
        assert set(per_mode) == {"digests", "oracle"}
        for summary in per_mode.values():
            assert 0.0 <= summary["stale_hop_rate"] <= 1.0


class TestTable1:
    def test_audit_clean(self):
        counts = get_experiment("table1").run(MICRO, seed=1)
        assert counts["owned"] == 2**8 - 1  # every node owned once
        assert counts["none"] == 0


class TestReport:
    def test_format_matrix(self):
        from repro.experiments.report import format_matrix

        out = format_matrix(["a"], ["x", "y"], [[1.0, 2.0]])
        assert "x" in out and "a" in out

    def test_sparkline(self):
        from repro.experiments.report import sparkline

        assert sparkline([]) == ""
        line = sparkline([0.0, 0.5, 1.0], width=3)
        assert len(line) == 3

    def test_format_summary(self):
        from repro.experiments.report import format_summary

        out = format_summary({"k": 1.0}, title="T")
        assert "T" in out and "k" in out


class TestResilience:
    def test_runs(self):
        r = get_experiment("resilience").run(MICRO, seed=1)
        assert r["n_failed"] >= 1
        assert 0.0 <= r["completion_during"] <= 1.0
        assert r["completion_before"] > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            get_experiment("resilience").run(MICRO, fail_fraction=0.0)

    def test_no_recovery_mode(self):
        r = get_experiment("resilience").run(MICRO, seed=1, recover=False)
        assert r["recovered"] == 0.0


class TestStaticVsAdaptive:
    def test_runs(self):
        r = get_experiment("static").run(
            MICRO, seed=1, modes=("static", "adaptive")
        )
        assert set(r) == {"static", "adaptive"}
        assert r["static"]["replicas_created"] == 0
        for mode in r:
            assert 0.0 <= r[mode]["drop_shifting"] <= 1.0


class TestHeterogeneity:
    def test_runs(self):
        r = get_experiment("heterogeneity").run(MICRO, seed=1)
        assert set(r) == {
            "homogeneous-BCR", "heterogeneous-BC", "heterogeneous-BCR"
        }
        assert r["homogeneous-BCR"]["slow_hosted_share"] == 0.0
        assert r["heterogeneous-BC"]["n_slow"] == 4.0  # half of 8
