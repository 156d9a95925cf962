"""The package runs on the standard library alone.

One fresh interpreter drives the three places a bounded-Zipf sampler is
built -- a serial run, a sharded coordinator's pre-generated schedule,
the live generator's :class:`SegmentSampler` -- and then reads
``sys.modules``: a third-party import anywhere on those paths (numpy
used to arrive with the first Zipf arrival, mid-run) fails here even on
a host that has the module installed.  The same probe keeps the
developer tooling (``repro.tools``, the determinism linter) off the
runtime path.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import random, sys
at_startup = set(sys.modules)  # site's .pth hooks import their own
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.runtime.async_client import SegmentSampler
from repro.sim.shard import WindowedCoordinator
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream

ns = balanced_tree(levels=6)
cfg = SystemConfig.replicated(n_servers=4, seed=3, cache_slots=8)
spec = cuzipf_stream(rate=100.0, alpha=1.25, warmup=0.5, phase=0.5,
                     n_phases=2, seed=3)
system = build_system(ns, cfg)
driver = WorkloadDriver(system, spec)
driver.run(extra_time=1.0)
assert driver.n_generated > 50
run = WindowedCoordinator(ns, cfg, spec, 2, backend="inline").run(
    spec.duration + 1.0)
assert run.n_shards == 2
sampler = SegmentSampler(spec, len(ns), random.Random(3))
assert 0 <= sampler.dest(0.75) < len(ns)

assert "numpy" not in sys.modules
assert "repro.tools" not in sys.modules  # the linter stays off runs
stdlib = getattr(sys, "stdlib_module_names", None)  # 3.10+
if stdlib is not None:
    tops = {name.partition(".")[0] for name in set(sys.modules) - at_startup}
    foreign = sorted(tops - stdlib - {"repro"})
    assert not foreign, foreign
print("clean")
"""


def test_runs_import_nothing_outside_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"
