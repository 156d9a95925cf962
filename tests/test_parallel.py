"""Tests for the multiprocess experiment fan-out."""

import logging
import os
import time

import pytest

from repro.experiments.parallel import (
    ParallelTaskError,
    PersistentWorker,
    parallel_map,
    worker_count,
)


def square(x):
    return x * x


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
        out = parallel_map(square, [dict(x=i) for i in range(6)], workers=0)
        assert out == [0, 1, 4, 9, 16, 25]

    def test_parallel_results_in_order(self):
        out = parallel_map(square, [dict(x=i) for i in range(6)], workers=2)
        assert out == [0, 1, 4, 9, 16, 25]

    def test_single_task_stays_serial(self):
        assert parallel_map(square, [dict(x=3)], workers=8) == [9]

    def test_empty(self):
        assert parallel_map(square, [], workers=4) == []

    def test_serial_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            parallel_map(boom, [dict(x=1), dict(x=2)], workers=0)

    def test_parallel_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            parallel_map(boom, [dict(x=1), dict(x=2)], workers=2)

    def test_serial_error_reports_task_context(self):
        with pytest.raises(ParallelTaskError) as exc_info:
            parallel_map(
                boom, [dict(x=1), dict(x="long-string-value" * 20)],
                workers=0,
            )
        msg = str(exc_info.value)
        assert "task 0/2" in msg
        assert "boom" in msg
        assert "RuntimeError: task failure" in msg
        assert "x=1" in msg
        assert exc_info.value.__cause__ is not None

    def test_parallel_error_reports_task_context(self):
        with pytest.raises(ParallelTaskError) as exc_info:
            parallel_map(boom, [dict(x=1), dict(x=2)], workers=2)
        assert "boom" in str(exc_info.value)
        assert "RuntimeError: task failure" in str(exc_info.value)

    def test_error_kwargs_are_truncated(self):
        with pytest.raises(ParallelTaskError) as exc_info:
            parallel_map(boom, [dict(x="v" * 500)], workers=0)
        assert "..." in str(exc_info.value)
        assert len(str(exc_info.value)) < 400

    def test_parallel_matches_serial_for_experiment_cell(self):
        """A real experiment cell produces identical results either way."""
        from repro.experiments.common import Scale
        from repro.experiments.fig5_ablation import fig5_cell

        micro = Scale(
            name="tiny", ns_levels=6, nc_nodes=300, n_servers=4,
            warmup=1.0, phase=1.0, n_phases=1, drain=1.0, cache_slots=6,
            digest_probe_limit=1,
        )
        kwargs = dict(scale=micro, preset="BCR", label="unifS", ns_kind="S",
                      alpha=0.0, utilization=0.3, seed=5)
        serial = parallel_map(fig5_cell, [kwargs, kwargs], workers=0)
        para = parallel_map(fig5_cell, [kwargs, kwargs], workers=2)
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
