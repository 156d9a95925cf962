"""The campaign layer: fingerprints, the artifact store, resumable
fan-out, and cold-vs-cached assembly equality."""

import dataclasses
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import (
    Campaign,
    Experiment,
    ResultStore,
    RunSpec,
    canonical,
    get_experiment,
    run_spec,
)
from repro.experiments.common import Scale

MICRO = Scale(
    name="tiny", ns_levels=6, nc_nodes=300, n_servers=8,
    warmup=1.5, phase=1.5, n_phases=1, drain=1.5, cache_slots=6,
    digest_probe_limit=1, long_run=12.0, long_bucket=3,
)


def toy_task(tag, value, marker_dir):
    """Record one execution, then return a derived payload."""
    marker = pathlib.Path(marker_dir) / f"{tag}.runs"
    with open(marker, "a") as fh:
        fh.write("x\n")
    return {"tag": tag, "value": value * 2}


def flaky_task(tag, marker_dir):
    """Fail on the first execution only (a transient error)."""
    marker = pathlib.Path(marker_dir) / f"{tag}.runs"
    runs = marker.read_text().count("x") if marker.exists() else 0
    with open(marker, "a") as fh:
        fh.write("x\n")
    if runs == 0:
        raise ValueError(f"transient failure in {tag}")
    return {"tag": tag, "recovered": True}


def failing_point(tag):
    raise ValueError(f"no cell named {tag}")


FAILING = Experiment(
    name="toy", title="one point that raises", point=failing_point,
    grid=lambda scale, seed: [("cell", dict(tag="x"))], render=print,
)


def run_count(marker_dir, tag):
    """How many times the task labelled ``tag`` actually executed."""
    marker = pathlib.Path(marker_dir) / f"{tag}.runs"
    return marker.read_text().count("x") if marker.exists() else 0


def toy_specs(marker_dir, tags=("a", "b", "c"), fn="toy_task"):
    return [
        RunSpec(
            experiment="toy", task=tag, fn=f"tests.test_campaign:{fn}",
            params=dict(tag=tag, value=i, marker_dir=str(marker_dir)),
        )
        for i, tag in enumerate(tags)
    ]


class TestGetSeed:
    def test_default_zero(self, monkeypatch):
        from repro.experiments.common import get_seed

        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert get_seed() == 0

    def test_env_override(self, monkeypatch):
        from repro.experiments.common import get_seed

        monkeypatch.setenv("REPRO_SEED", "42")
        assert get_seed() == 42

    def test_explicit_argument_wins(self, monkeypatch):
        from repro.experiments.common import get_seed

        monkeypatch.setenv("REPRO_SEED", "42")
        assert get_seed(7) == 7

    def test_bad_env_rejected(self, monkeypatch):
        from repro.experiments.common import get_seed

        monkeypatch.setenv("REPRO_SEED", "lots")
        with pytest.raises(ValueError):
            get_seed()


class TestFingerprint:
    def spec(self, **over):
        params = dict(scale=MICRO, seed=3, utilization=0.4)
        params.update(over.pop("params", {}))
        kw = dict(experiment="fig3", task="BCR",
                  fn="repro.experiments.fig3_drops:fig3_stream",
                  params=params)
        kw.update(over)
        return RunSpec(**kw)

    def test_stable_within_process(self):
        assert self.spec().fingerprint == self.spec().fingerprint

    def test_registry_fingerprints_pinned(self):
        """Every registered run at every scale keeps its fingerprint.

        A refactor of the experiment declarations that changes a task
        label, a point path or a parameter invalidates every cached
        artifact; this digest names that before a campaign finds out.
        """
        import hashlib

        from repro.experiments.campaign import EXPERIMENT_NAMES
        from repro.experiments.common import SCALES

        digest = hashlib.sha256()
        for scale in SCALES.values():
            for seed in (0, 7):
                for name in EXPERIMENT_NAMES:
                    for s in get_experiment(name).specs(scale, seed=seed):
                        digest.update(
                            (s.experiment + s.task + s.fn + s.fingerprint)
                            .encode()
                        )
        assert digest.hexdigest() == (
            "e87c128f39165525888522bc25afc6f8455094826279f390b2f48550eaba7bcc"
        )

    def test_deterministic_across_processes(self):
        """Same spec, different interpreter (and hash seed), same hash."""
        code = (
            "from tests.test_campaign import TestFingerprint;"
            "print(TestFingerprint().spec().fingerprint)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == self.spec().fingerprint

    def test_param_change_invalidates(self):
        assert self.spec().fingerprint != \
            self.spec(params=dict(seed=4)).fingerprint

    def test_nested_dataclass_change_invalidates(self):
        bigger = dataclasses.replace(MICRO, n_servers=16)
        assert self.spec().fingerprint != \
            self.spec(params=dict(scale=bigger)).fingerprint

    def test_fn_change_invalidates(self):
        other = self.spec(fn="repro.experiments.fig3_drops:other")
        assert self.spec().fingerprint != other.fingerprint

    def test_duplicate_specs_share_fingerprint(self):
        assert self.spec().fingerprint == self.spec(
            params=dict(utilization=0.4)
        ).fingerprint

    def test_uncanonicalisable_params_rejected(self):
        with pytest.raises(TypeError):
            self.spec(params=dict(bad=object())).fingerprint

    def test_canonical_sorts_mappings(self):
        assert canonical({"b": 1, "a": (2, 3)}) == {"a": [2, 3], "b": 1}


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"fingerprint": "f" * 32, "status": "ok", "result": [1, 2]}
        store.put(record)
        assert store.fetch("f" * 32)["result"] == [1, 2]
        assert store.fingerprints() == ["f" * 32]
        assert len(store) == 1

    def test_missing_and_corrupt_are_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.fetch("0" * 32) is None
        store.path("1" * 32).write_text("{not json")
        assert store.fetch("1" * 32) is None

    def test_failure_records_are_not_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record_failure({"fingerprint": "a" * 32, "status": "failed"})
        assert store.fetch("a" * 32) is None
        assert store.fingerprints() == []

    def test_success_clears_failure_marker(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record_failure({"fingerprint": "a" * 32, "status": "failed"})
        store.put({"fingerprint": "a" * 32, "status": "ok", "result": 1})
        assert not store.failed_path("a" * 32).exists()
        assert store.fetch("a" * 32)["result"] == 1


class TestRunSpecExecution:
    def test_run_spec_captures_failure(self, tmp_path):
        spec = toy_specs(tmp_path, tags=("x",), fn="flaky_task")[0]
        spec = dataclasses.replace(
            spec, params=dict(tag="x", marker_dir=str(tmp_path))
        )
        record = run_spec(spec, store_dir=str(tmp_path / "store"))
        assert record["status"] == "failed"
        assert record["error"]["type"] == "ValueError"
        assert "transient" in record["error"]["message"]
        store = ResultStore(tmp_path / "store")
        assert store.failed_path(spec.fingerprint).exists()

    def test_record_metadata(self, tmp_path):
        spec = RunSpec(
            experiment="toy", task="m", fn="tests.test_campaign:toy_task",
            params=dict(tag="m", value=1, marker_dir=str(tmp_path),
                        scale=MICRO, seed=7),
        )
        record = run_spec(spec)
        meta = record["meta"]
        assert meta["scale"] == "tiny"
        assert meta["seed"] == 7
        assert meta["worker"] == f"pid-{os.getpid()}"
        assert meta["wall_time_s"] >= 0.0
        assert meta["code_version"]


class TestCampaign:
    def test_cold_run_executes_and_stores(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = toy_specs(tmp_path)
        result = Campaign(store=store).run(specs)
        assert result.stats.executed == 3
        assert result.stats.cached == 0
        assert not result.failures
        assert result.payloads == [
            {"tag": t, "value": 2 * i} for i, t in enumerate("abc")
        ]
        assert len(store) == 3

    def test_rerun_is_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = toy_specs(tmp_path)
        first = Campaign(store=store).run(specs)
        again = Campaign(store=store).run(specs)
        assert again.stats.cached == 3 and again.stats.executed == 0
        assert again.payloads == first.payloads
        assert all(run_count(tmp_path, t) == 1 for t in "abc")

    def test_resume_after_partial_failure(self, tmp_path):
        """Only specs without artifacts (the failed one) re-execute."""
        store = ResultStore(tmp_path / "store")
        specs = toy_specs(tmp_path) + toy_specs(
            tmp_path, tags=("flaky",), fn="flaky_task"
        )
        specs[-1] = dataclasses.replace(
            specs[-1], params=dict(tag="flaky", marker_dir=str(tmp_path))
        )
        first = Campaign(store=store).run(specs)
        assert first.stats.failed == 1 and first.stats.executed == 3
        assert [s.task for s, _ in first.failures] == ["flaky"]
        assert first.payloads[-1] is None

        resumed = Campaign(store=store).run(specs)
        assert resumed.stats.cached == 3
        assert resumed.stats.executed == 1
        assert not resumed.failures
        assert resumed.payloads[-1] == {"tag": "flaky", "recovered": True}
        # the healthy specs never re-ran; the flaky one ran exactly twice
        assert all(run_count(tmp_path, t) == 1 for t in "abc")
        assert run_count(tmp_path, "flaky") == 2

    def test_no_cache_reexecutes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = toy_specs(tmp_path)
        Campaign(store=store).run(specs)
        redo = Campaign(store=store, use_cache=False).run(specs)
        assert redo.stats.executed == 3 and redo.stats.cached == 0
        assert all(run_count(tmp_path, t) == 2 for t in "abc")

    def test_duplicate_specs_execute_once(self, tmp_path):
        specs = toy_specs(tmp_path, tags=("a",)) * 3
        result = Campaign().run(specs)
        assert result.stats.total == 3
        assert run_count(tmp_path, "a") == 1
        assert result.payloads[0] == result.payloads[2]

    def test_failure_isolation_and_raise(self, tmp_path):
        specs = toy_specs(tmp_path, tags=("ok",)) + toy_specs(
            tmp_path, tags=("bad",), fn="flaky_task"
        )
        specs[-1] = dataclasses.replace(
            specs[-1], params=dict(tag="bad", marker_dir=str(tmp_path))
        )
        result = Campaign().run(specs)
        assert result.payloads[0] == {"tag": "ok", "value": 0}
        with pytest.raises(RuntimeError, match="1 of 2 runs failed"):
            result.raise_on_failure()

    def test_summary_format(self, tmp_path, capsys):
        result = Campaign().run(toy_specs(tmp_path))
        line = result.stats.summary()
        assert "done=3/3" in line and "cached=0" in line
        assert "executed=3" in line and "failed=0" in line
        # one progress line, on stderr, when the run ends
        assert capsys.readouterr().err == f"[campaign] {line}\n"

    def test_one_pool_per_campaign(self, tmp_path):
        """Every spec to execute goes through one pool, however many."""
        spawn = multiprocessing.get_context("spawn")
        specs = toy_specs(tmp_path, tags=tuple("abcdefghij"))
        with mock.patch.object(spawn, "Pool", wraps=spawn.Pool) as pool:
            result = Campaign(workers=2).run(specs)
        assert result.stats.executed == 10 and not result.failures
        assert pool.call_count == 1

    def test_report_runs_one_campaign(self, tmp_path, monkeypatch, capsys):
        """``python -m repro`` runs every requested experiment as one
        campaign: one ``[campaign]`` line and, under two workers, one
        pool, however many experiments."""
        from repro.experiments import common

        spawn = multiprocessing.get_context("spawn")

        def toy_experiment(name):
            return Experiment(
                name=name, title=name, point=toy_task,
                grid=lambda scale, seed: [
                    (tag, dict(tag=f"{name}-{tag}", value=i,
                               marker_dir=str(tmp_path)))
                    for i, tag in enumerate("abc")
                ],
                render=print, assemble=lambda specs, payloads: payloads,
            )

        toys = {name: toy_experiment(name) for name in ("one", "two")}
        monkeypatch.setattr(campaign, "_MODULES", dict.fromkeys(toys, ""))
        monkeypatch.setattr(campaign, "get_experiment", toys.__getitem__)
        monkeypatch.setattr(common, "get_scale", lambda name=None: MICRO)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with mock.patch.object(spawn, "Pool", wraps=spawn.Pool) as pool:
            assert campaign.report(["one", "two"]) == 0
        assert pool.call_count == 1
        out = capsys.readouterr()
        assert out.err.count("[campaign]") == 1
        assert out.out.index("=== one ===") < out.out.index("=== two ===")
        assert "'tag': 'two-c', 'value': 4" in out.out
        assert all(run_count(tmp_path, f"{name}-{tag}") == 1
                   for name in toys for tag in "abc")

    def test_in_memory_failure_names_the_run(self):
        """An in-memory experiment raises after its runs finish, naming
        ``experiment:task``, the error and the raising frame."""
        with pytest.raises(RuntimeError) as info:
            FAILING.run(MICRO, seed=0)
        assert info.type is RuntimeError
        text = str(info.value)
        assert "toy:cell -> ValueError: no cell named x" in text
        assert "in failing_point" in text
        assert 'raise ValueError(f"no cell named {tag}")' in text


class TestColdVsCached:
    def test_fig3_cold_resumed_and_cached_agree(self, tmp_path):
        """The acceptance bar: one figure, fixed seed, three paths."""
        store = ResultStore(tmp_path / "results")
        fig3 = get_experiment("fig3")
        direct = fig3.run(MICRO, seed=3)
        cold = fig3.run(MICRO, seed=3, store=store)
        assert len(store) == len(fig3.specs(MICRO, seed=3))
        cached = fig3.run(MICRO, seed=3, store=store)
        assert direct == cold == cached
        # stored payloads really are the source: corrupt one and the
        # cache rejects it instead of assembling garbage
        fp = store.fingerprints()[0]
        store.path(fp).write_text("{}")
        healed = fig3.run(MICRO, seed=3, store=store)
        assert healed == direct

    def test_artifact_payloads_json_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        get_experiment("table1").run(MICRO, seed=3, store=store)
        (record_path,) = [
            store.path(fp) for fp in store.fingerprints()
        ]
        record = json.loads(record_path.read_text())
        assert record["status"] == "ok"
        assert record["experiment"] == "table1"
        assert record["meta"]["scale"] == "tiny"


class TestCli:
    def test_run_twice_second_pass_fully_cached(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import common

        monkeypatch.setattr(common, "get_scale", lambda name=None: MICRO)
        out_dir = str(tmp_path / "results")
        assert campaign.main(["table1", "--out", out_dir]) == 0
        first = capsys.readouterr().out
        assert "=== table1 ===" in first and "owned" in first
        assert "cached=0" in first

        assert campaign.main(["table1", "--out", out_dir]) == 0
        second = capsys.readouterr().out
        assert "cached=1" in second and "executed=0" in second
        # identical rendered block either way
        def block(s):
            return s[s.index("=== table1 ==="):s.index("\ncampaign:")]

        assert block(first) == block(second)

    def test_cli_flag_validation(self, capsys):
        with pytest.raises(SystemExit):
            campaign.main(["bogus"])
