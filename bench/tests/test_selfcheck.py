"""Self-check of the benchmark harness (not part of tier-1).

Run with ``python -m pytest bench/tests``.  Nothing here measures
anything: the checks are that the harness says what ``BENCHMARK.json``
declares, that its output checks can fail, and that tracing leaves the
program as it found it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
    names += [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_traced_layer_is_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in tracer_mod.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= declared


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_names(workload, trace):
    proc = _run("--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert out["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0


def test_smoke_run_of_everything_names_every_workload():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]:
        assert name in proc.stdout
    assert "all outputs correct" in proc.stdout


def test_perturbed_pin_fails_the_run(monkeypatch, capsys):
    key = ("sim_hotspot", 1)
    monkeypatch.setitem(workloads.PINS, key, "0" * 64)
    code = run.main(["--workload", "sim_hotspot", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    assert code != 0
    assert "CHECK FAILED" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_pins_are_what_the_serial_engine_computes():
    unit = workloads.serial_unit(
        workloads.sim_inputs("shard_hotspot", 1), HostSpeed()
    )
    assert unit.fingerprint == workloads.PINS[("shard_hotspot", 1)]


@pytest.mark.parametrize("name", ["sim_hotspot", "shard_hotspot"])
def test_traced_fingerprint_equals_untraced(name):
    inputs = workloads.sim_inputs(name, 7, smoke=True)
    speed = HostSpeed()

    def make(root=nullcontext):
        if name == "shard_hotspot":
            return workloads.shard_unit(inputs, speed, "inline", True, root)
        return workloads.serial_unit(inputs, speed, root)

    plain = make()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        traced = make(tr.root)
    finally:
        tr.remove()
    assert traced.fingerprint == plain.fingerprint
    assert tr.calls("decide") > 0
    # self times of all layers plus the unattributed rest are the root span
    total = sum(row["self_s"] for row in tr.by_layer().values())
    assert total == pytest.approx(tr.root_s(), rel=0.01)


def test_every_patch_is_removed():
    import importlib

    def current():
        out = {}
        for _, mod_name, cls_name, names in tracer_mod.PATCHES:
            module = importlib.import_module(mod_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            for attr in names:
                out[(mod_name, cls_name, attr)] = vars(owner)[attr]
        return out

    from repro.core import maps
    from repro.server import routing_core

    before = current()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        during = current()
        assert all(during[k] is not before[k] for k in before)
        # a by-value import elsewhere in the program is rebound too
        assert routing_core.merge_maps is maps.merge_maps
        assert routing_core.merge_maps is not before[
            ("repro.core.maps", None, "merge_maps")
        ]
    finally:
        tr.remove()
    after = current()
    assert all(after[k] is before[k] for k in before)
    assert routing_core.merge_maps is maps.merge_maps
    assert tr.patched() == []


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
