"""The registry-driven experiment printers produce sane reports."""

import pytest

from repro.experiments import campaign, common
from repro.experiments.campaign import EXPERIMENT_NAMES, get_experiment
from repro.experiments.common import Scale

MICRO = Scale(
    name="tiny", ns_levels=6, nc_nodes=300, n_servers=8,
    warmup=1.5, phase=1.5, n_phases=1, drain=1.5, cache_slots=6,
    digest_probe_limit=1, long_run=12.0, long_bucket=3,
)


def report_block(name, scale):
    """Run one experiment in memory and print its report block."""
    exp = get_experiment(name)
    exp.render(exp.run(scale))


class TestRegistry:
    def test_every_experiment_registered(self):
        assert set(EXPERIMENT_NAMES) == {
            "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "churn", "heterogeneity", "resilience", "static",
        }

    def test_registry_entries_are_complete(self):
        for name in EXPERIMENT_NAMES:
            exp = get_experiment(name)
            assert exp.name == name
            assert exp.title
            for part in (exp.point, exp.grid, exp.assemble, exp.render):
                assert callable(part)
            # the point is found again by its path, in a pool worker
            (spec, *_) = exp.specs(MICRO, seed=1)
            assert campaign.resolve_task(spec.fn) is exp.point

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_experiment("bogus")


class TestPrinters:
    def test_table1_printer(self, capsys):
        report_block("table1", MICRO)
        out = capsys.readouterr().out
        assert "owned" in out and "cached" in out

    def test_fig6_printer(self, capsys):
        report_block("fig6", MICRO)
        out = capsys.readouterr().out
        assert "util0.4" in out
        assert "smoothed-max" in out

    def test_fig9_printer(self, capsys):
        report_block("fig9", MICRO)
        out = capsys.readouterr().out
        assert "servers" in out and "latency" in out

    def test_heterogeneity_printer(self, capsys):
        report_block("heterogeneity", MICRO)
        out = capsys.readouterr().out
        assert "heterogeneous-BCR" in out

    def test_resilience_printer(self, capsys):
        report_block("resilience", MICRO)
        out = capsys.readouterr().out
        assert "completion_during" in out

    def test_static_printer(self, capsys):
        report_block("static", MICRO)
        out = capsys.readouterr().out
        assert "adaptive" in out


class TestMain:
    def test_main_runs_a_subset(self, capsys, monkeypatch):
        # force the micro scale through the registry path
        monkeypatch.setattr(common, "get_scale", lambda name=None: MICRO)
        campaign.report(["table1"])
        out = capsys.readouterr().out
        assert "=== table1 ===" in out
        assert "scale=tiny" in out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            campaign.report(["bogus"])
