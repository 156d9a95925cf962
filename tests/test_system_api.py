"""Tests for System-level convenience APIs and the experiment CLI."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree


@pytest.fixture
def system():
    ns = balanced_tree(levels=5)
    return ns, build_system(
        ns, SystemConfig.replicated(n_servers=4, seed=2,
                                    digest_probe_limit=1)
    )


class TestSystemAPI:
    def test_lookup_name(self, system):
        ns, sys_ = system
        name = ns.name_of(5)
        qid = sys_.lookup_name(0, name)
        assert qid == 1
        sys_.engine.run(until=5.0)
        assert sys_.stats.n_completed == 1

    def test_hosts_of_ground_truth(self, system):
        ns, sys_ = system
        node = next(iter(sys_.peers[1].owned))
        assert sys_.hosts_of(node) == [1]
        other = sys_.peers[2]
        other.install_replica(
            sys_.peers[1].build_replica_payload(node), 0.0
        )
        assert sorted(sys_.hosts_of(node)) == [1, 2]

    def test_loads_shape(self, system):
        ns, sys_ = system
        loads = sys_.loads()
        assert len(loads) == 4
        assert all(0.0 <= v <= 1.0 for v in loads)

    def test_hosted_counts(self, system):
        ns, sys_ = system
        counts = sys_.hosted_counts()
        assert sum(counts) == len(ns)

    def test_repr(self, system):
        ns, sys_ = system
        assert "servers=4" in repr(sys_)

    def test_qids_monotone(self, system):
        ns, sys_ = system
        q1 = sys_.inject(0, 1)
        q2 = sys_.inject(0, 2)
        assert q2 == q1 + 1

    def test_maintenance_idempotent(self, system):
        ns, sys_ = system
        sys_.start_maintenance()
        before = len(sys_.engine)
        sys_.start_maintenance()
        assert len(sys_.engine) == before


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments.campaign import EXPERIMENT_NAMES

        assert set(EXPERIMENT_NAMES) >= {
            "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "churn", "heterogeneity", "resilience", "static",
        }

    def test_unknown_experiment_rejected(self, monkeypatch):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["nope"])

    def test_peer_repr(self, system):
        ns, sys_ = system
        assert "sid=0" in repr(sys_.peers[0])


class TestProgressReporting:
    def test_progress_lines_printed(self, system, capsys):
        ns, sys_ = system
        for i in range(5):
            sys_.inject(0, i)
        sys_.run_until(3.0, progress_every=1.0)
        out = capsys.readouterr().out
        assert out.count("[t=") >= 2
        assert "injected=" in out

    def test_no_progress_by_default(self, system, capsys):
        ns, sys_ = system
        sys_.inject(0, 1)
        sys_.run_until(2.0)
        assert capsys.readouterr().out == ""


class TestDebugLogging:
    def test_session_events_logged(self, system, caplog):
        import logging

        ns, sys_ = system
        p = sys_.peers[0]
        p.known_loads[1] = (0.0, 0.0)
        p.meter.apply_adjustment(1.0)
        with caplog.at_level(logging.DEBUG, logger="repro.replication"):
            p.repl.maybe_trigger(0.0)
            sys_.engine.run(until=1.0)
        assert any("opens session" in r.message for r in caplog.records)

    def test_failure_events_logged(self, system, caplog):
        import logging

        from repro.cluster.failures import FailureInjector

        ns, sys_ = system
        inj = FailureInjector(sys_)
        with caplog.at_level(logging.INFO, logger="repro.failures"):
            inj.fail(2)
            inj.recover(2)
        msgs = [r.message for r in caplog.records]
        assert any("failed" in m for m in msgs)
        assert any("recovered" in m for m in msgs)
