"""Where a run's work goes: campaign fan-out, the two count variables,
the derived shard backend, and the forked shard worker."""

import json
import logging
import multiprocessing
import os
import time
import warnings
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.experiments import campaign
from repro.experiments.common import run_sharded_workload
from repro.experiments.parallel import (
    env_count,
    parallel_map,
    shard_backend,
    worker_count,
)
from repro.sim.shard import MergedRun, PersistentWorker, run_fingerprint
from tests.test_shard import fig3_style, serial_run


def square(x):
    return x * x


def sharded_on_eight_cpus(shards):
    """A campaign task that shards its run, as on an 8-CPU host: the
    fingerprint and the backend it ran on."""
    ns, cfg, spec, until = fig3_style()
    with mock.patch.object(os, "cpu_count", lambda: 8):
        run = run_sharded_workload(ns, cfg, spec, until, shards=shards)
    return json.dumps(run_fingerprint(run), sort_keys=True), run.data_plane


def serial_fingerprint():
    ns, cfg, spec, until = fig3_style()
    return json.dumps(
        run_fingerprint(serial_run(ns, cfg, spec, until)), sort_keys=True
    )


def fig5_cell_of(kwargs):
    from repro.experiments.fig5_ablation import fig5_cell

    return fig5_cell(**kwargs)


def boom(x):
    raise RuntimeError("task failure")


def echo_until_exit(conn, prefix=b""):
    while True:
        frame = conn.recv_bytes()
        if frame == b"exit":
            return
        conn.send_bytes(prefix + frame)


def wait_for_eof(conn):
    try:
        conn.recv_bytes()
    except EOFError:
        pass


def deaf(conn):
    time.sleep(60)


class TestWorkerCount:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count(10) == 0

    def test_env_zero_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert worker_count(10) == 0

    def test_env_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert worker_count(10) == 4

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert worker_count(1000) == (os.cpu_count() or 1)

    def test_capped_by_tasks(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert worker_count(3) == 3

    def test_one_worker_is_serial(self):
        assert worker_count(10, workers=1) == 0

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            worker_count(10)


class TestParallelMap:
    def test_serial_results_in_order(self):
        assert parallel_map(square, range(6), workers=0) == [0, 1, 4, 9, 16, 25]

    def test_parallel_results_in_order(self):
        assert parallel_map(square, range(6), workers=2) == [0, 1, 4, 9, 16, 25]

    def test_single_task_stays_serial(self):
        assert parallel_map(square, [3], workers=8) == [9]

    def test_empty(self):
        assert parallel_map(square, [], workers=4) == []

    def test_serial_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="task failure"):
            parallel_map(boom, [1, 2], workers=0)

    def test_parallel_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="task failure"):
            parallel_map(boom, [1, 2], workers=2)

    def test_parallel_matches_serial_for_experiment_cell(self):
        """A real experiment cell produces identical results either way."""
        from repro.experiments.common import Scale

        micro = Scale(
            name="tiny", ns_levels=6, nc_nodes=300, n_servers=4,
            warmup=1.0, phase=1.0, n_phases=1, drain=1.0, cache_slots=6,
            digest_probe_limit=1,
        )
        kwargs = dict(scale=micro, preset="BCR", label="unifS", ns_kind="S",
                      alpha=0.0, utilization=0.3, seed=5)
        serial = parallel_map(fig5_cell_of, [kwargs, kwargs], workers=0)
        para = parallel_map(fig5_cell_of, [kwargs, kwargs], workers=2)
        assert serial == para


class TestPersistentWorker:
    def test_frames_round_trip_and_exit_is_quiet(self, caplog):
        worker = PersistentWorker(echo_until_exit)
        worker.send_frame(b"ping")
        assert worker.recv_frame() == b"ping"
        with caplog.at_level(logging.WARNING, "repro.experiments.parallel"):
            worker.close(sentinel=b"exit")
        assert not worker.proc.is_alive()
        assert not caplog.records

    def test_target_gets_its_arguments_unpickled(self):
        """The worker is forked: its arguments are the caller's objects,
        inherited, so even a closure (which pickle refuses) works."""
        suffix = b"!"
        worker = PersistentWorker(
            lambda conn, tag: echo_until_exit(conn, tag + suffix), b"echo:"
        )
        worker.send_frame(b"ping")
        assert worker.recv_frame() == b"echo:!ping"
        worker.close(sentinel=b"exit")
        assert worker.proc.exitcode == 0

    def test_worker_sees_eof_when_the_parent_end_closes(self):
        """A forked worker holds no copy of the coordinator's pipe ends,
        its own or an earlier sibling's, so closing one is its EOF."""
        first = PersistentWorker(wait_for_eof)
        second = PersistentWorker(wait_for_eof)
        first._conn.close()
        first.proc.join(timeout=10)
        assert first.proc.exitcode == 0
        assert second.proc.is_alive()
        second._conn.close()
        second.proc.join(timeout=10)
        assert second.proc.exitcode == 0

    def test_terminating_a_hung_worker_is_logged(self, caplog, monkeypatch):
        worker = PersistentWorker(deaf)
        join = worker.proc.join
        # close() waits 5 s before it escalates; 0.2 s makes the point
        monkeypatch.setattr(worker.proc, "join",
                            lambda timeout: join(min(timeout, 0.2)))
        with caplog.at_level(logging.WARNING, "repro.experiments.parallel"):
            worker.close(sentinel=b"exit")
        join(5)
        assert not worker.proc.is_alive()
        assert [r.getMessage() for r in caplog.records] == [
            f"worker pid={worker.proc.pid} did not exit when asked; "
            "terminating it"
        ]


# ----------------------------------------------------------------------
# the count variables and the derived shard backend
# ----------------------------------------------------------------------

#: one vocabulary for REPRO_WORKERS and REPRO_SHARDS (None = unset,
#: ValueError = rejected), on an 8-CPU host
COUNT_VALUES = [
    (None, None), ("", None), ("0", None), ("none", None), ("off", None),
    (" Off ", None), ("auto", 8), ("AUTO", 8), ("1", 1), ("3", 3),
    ("abc", ValueError), ("-1", ValueError), ("1.5", ValueError),
]


def _set(monkeypatch, var, raw):
    if raw is None:
        monkeypatch.delenv(var, raising=False)
    else:
        monkeypatch.setenv(var, raw)


def _readers(out):
    """Every reader of each variable, as a call that must raise on a
    bad value."""
    ns, cfg, spec, until = fig3_style()
    return {
        "REPRO_WORKERS": [
            lambda: worker_count(10),
            lambda: parallel_map(square, [1, 2]),
            lambda: shard_backend(2),
        ],
        "REPRO_SHARDS": [
            lambda: run_sharded_workload(ns, cfg, spec, until),
            lambda: campaign.main(["table1", "--out", str(out)]),
        ],
    }


class TestCountVariables:
    @pytest.mark.parametrize("var", ["REPRO_WORKERS", "REPRO_SHARDS"])
    @pytest.mark.parametrize("raw, want", COUNT_VALUES)
    def test_one_vocabulary(self, monkeypatch, tmp_path, var, raw, want):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        _set(monkeypatch, var, raw)
        if want is not ValueError:
            assert env_count(var) == want
            return
        # the message names the variable and the value, from every reader
        match = f"{var}={raw.strip().lower()!r}"
        with pytest.raises(ValueError, match=match):
            env_count(var)
        for read in _readers(tmp_path)[var]:
            with pytest.raises(ValueError, match=match):
                read()


class TestShardPlacement:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_backend_budget(self, monkeypatch):
        assert shard_backend(4) == "process"
        assert shard_backend(8) == "process"
        assert shard_backend(16) == "inline"  # more shards than cores
        assert shard_backend(1) == "inline"
        # campaign workers claim the cores first: 8 // 2 = 4 per run
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert shard_backend(4) == "process"
        assert shard_backend(5) == "inline"
        monkeypatch.setenv("REPRO_WORKERS", "auto")  # one core per run
        assert shard_backend(2) == "inline"

    def test_backend_never_warns(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shard_backend(64) == "inline"
            monkeypatch.setenv("REPRO_WORKERS", "8")
            assert shard_backend(4) == "inline"

    def test_pool_worker_never_forks(self, monkeypatch):
        """A daemonic process (a ``parallel_map`` pool worker) may not
        have children: its shards run inline whatever the budget."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
        assert shard_backend(2) == "inline"
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=False))
        assert shard_backend(2) == "process"

    def test_env_selects_shards(self, monkeypatch):
        ns, cfg, spec, until = fig3_style()
        monkeypatch.setenv("REPRO_SHARDS", "2")
        run = run_sharded_workload(ns, cfg, spec, until)
        assert isinstance(run, MergedRun)
        assert run.n_shards == 2
        assert run.data_plane["backend"] == "process"


class TestCampaignWorkersWithShards:
    def test_pool_worker_runs_its_shards_inline(self, monkeypatch):
        """``REPRO_WORKERS=2`` with 2 shards per run on an 8-CPU host:
        the budget covers the shards, but each run is in a pool worker,
        so it must not fork; both runs equal the serial engine's."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        out = parallel_map(sharded_on_eight_cpus, [2, 2])
        ref = serial_fingerprint()
        for fingerprint, data_plane in out:
            assert data_plane["backend"] == "inline"
            assert fingerprint == ref


class TestWithoutFork:
    """Where ``fork`` is missing (Windows), shards run inline."""

    @pytest.fixture(autouse=True)
    def spawn_only(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_backend_is_inline(self):
        assert shard_backend(2) == "inline"

    def test_run_sharded_workload_runs_inline(self):
        ns, cfg, spec, until = fig3_style()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = run_sharded_workload(ns, cfg, spec, until, shards=2)
        assert isinstance(run, MergedRun)
        assert run.data_plane["backend"] == "inline"
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            serial_fingerprint()
