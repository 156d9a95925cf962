"""The package runs on the standard library alone.

One fresh interpreter drives the three paths that build a bounded-Zipf
sampler -- a serial run, a sharded coordinator's pre-generated schedule,
the live generator's :class:`SegmentSampler` (one class for all three,
in ``repro.workload.arrivals``) -- and then reads
``sys.modules``: a third-party import anywhere on those paths (numpy
used to arrive with the first Zipf arrival, mid-run) fails here even on
a host that has the module installed.  The same probe keeps the
developer tooling (``repro.tools``, the determinism linter) off the
runtime path, and checks that a start-up loads only the modules it runs:
``import repro`` alone loads no other module, the probe's paths load
none of the modules in ``UNUSED_ON_RUNS`` (nor ``multiprocessing`` or
the experiments layer), the linter's CLI loads no simulator module, and
the live client loads no cluster module.

Two static checks pin the layering: the simulator, network, server,
core, cluster and runtime packages never import ``repro.experiments``,
and only ``repro.experiments`` reads the environment.  A third pins
reachability: every module under ``src/repro`` is imported, directly or
transitively, from an entry point -- ``python -m repro``, a script's
``__main__`` block, a registered experiment or its run units, the
public API table, or the benchmarks -- so a module only its own tests
load cannot stay in the package.  A fourth does the same per def:
every function, class, method and module-level assignment under
``src/repro`` is named somewhere outside ``tests/`` (or is a hook, or
public API), so a def only tests call cannot stay either.
"""

import ast
import collections
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: the mechanism packages: they take arguments and decide no policy
MECHANISM = ("sim", "net", "server", "core", "cluster", "runtime")

#: modules no benchmark workload calls: a run that loads one pays for
#: compiling it and nothing else
UNUSED_ON_RUNS = (
    "repro.client.client",
    "repro.client.results",
    "repro.cluster.failures",
    "repro.core.static_replication",
    "repro.workload.trace",
    "repro.sim.memsize",
    "repro.server.state",
)

PROBE = """
import random, sys
at_startup = set(sys.modules)  # site's .pth hooks import their own
import repro
added = sorted(set(sys.modules) - at_startup)
assert [m for m in added if m.startswith("repro")] == ["repro"], added
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.sim.shard import WindowedCoordinator
from repro.workload.arrivals import SegmentSampler, WorkloadDriver
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
# serial and inline runs decide nothing and fork nothing
assert "repro.experiments" not in sys.modules
assert "multiprocessing" not in sys.modules
unused = [m for m in UNUSED_ON_RUNS if m in sys.modules]
assert not unused, unused
stdlib = getattr(sys, "stdlib_module_names", None)  # 3.10+
if stdlib is not None:
    tops = {name.partition(".")[0] for name in set(sys.modules) - at_startup}
    foreign = sorted(tops - stdlib - {"repro"})
    assert not foreign, foreign
print("clean")
"""


LINT_PROBE = """
import sys
import repro.tools.detlint.cli
loaded = sorted(m for m in sys.modules
                if m.startswith(("repro.sim", "repro.server", "repro.cluster")))
assert not loaded, loaded
print("clean")
"""


#: the live client draws through the simulator's sampler; the module
#: that holds it names ``System`` for annotations only
CLIENT_PROBE = """
import sys
import repro.runtime.async_client
loaded = sorted(m for m in sys.modules if m.startswith("repro.cluster"))
assert not loaded, loaded
print("clean")
"""


def _run_probe(source):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", source],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_runs_import_nothing_outside_the_stdlib():
    _run_probe(f"UNUSED_ON_RUNS = {UNUSED_ON_RUNS!r}\n{PROBE}")


def test_lint_cli_loads_no_simulator_module():
    _run_probe(LINT_PROBE)


def test_live_client_loads_no_cluster_module():
    _run_probe(CLIENT_PROBE)


def _imported_modules(path):
    """Every module an ``import`` or ``from ... import`` in ``path``
    names, function-local ones included: relative imports resolved
    against the file's package, and ``from m import x`` yielding
    ``m.x`` too (it counts when ``x`` is a submodule)."""
    inside = SRC in path.parents
    package = ".".join(path.parent.relative_to(SRC).parts) if inside else ""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def test_mechanism_never_imports_the_experiments_layer():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for package in MECHANISM
        for path in sorted((PACKAGE / package).rglob("*.py"))
        for name in _imported_modules(path)
        if name == "repro.experiments" or name.startswith("repro.experiments.")
    ]
    assert not offenders, offenders


def test_only_the_experiments_layer_reads_the_environment():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] != "experiments"
        and re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert not offenders, offenders


#: modules no entry point reaches yet, and defs only tests name, each
#: (by dotted name) with the roadmap item that will reach it; a def in
#: a waived module is waived too
UNREACHED = {
    "repro.cluster.membership": "ROADMAP item O (the churn experiment)",
}


def _module_files():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _has_main_block(path):
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in ast.parse(path.read_text()).body
    )


def _roots(modules):
    import repro
    from repro.experiments.campaign import (
        _MODULES,
        EXPERIMENT_NAMES,
        get_experiment,
    )
    from repro.experiments.common import SCALES

    # ``repro.__main__`` and every other script module
    roots = {name for name, path in modules.items() if _has_main_block(path)}
    roots.update(_MODULES.values())
    roots.update(repro._API.values())
    roots.update(
        spec.fn.partition(":")[0]
        for scale in SCALES.values()
        for name in EXPERIMENT_NAMES
        for spec in get_experiment(name).specs(scale, seed=0)
    )
    for directory in ("bench", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots.update(_imported_modules(path))
    return roots


def _reached(modules, roots):
    """The import closure of ``roots`` over ``modules`` (names outside
    it are dropped), each reached module's parent packages included."""
    reached = set()
    todo = [m for m in roots if m in modules]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        found = set(_imported_modules(modules[name]))
        found.update(name.rsplit(".", k)[0] for k in range(1, name.count(".") + 1))
        todo.extend(m for m in found if m in modules and m not in reached)
    return reached


def test_every_module_is_reached_from_an_entry_point():
    modules = _module_files()
    reached = _reached(modules, _roots(modules))
    unreached = sorted(set(modules) - reached - set(UNREACHED))
    assert not unreached, (
        f"no entry point imports {unreached}: delete them with their "
        "tests, or give them a caller"
    )
    stale = sorted(set(UNREACHED) & reached)
    assert not stale, f"waived modules are reached now: {stale}"


#: the directories whose code keeps a def alive: everything but tests
CALLERS = ("src", "bench", "benchmarks", "examples", "scripts")


def _docstrings(tree):
    """The ids of the string nodes in ``tree`` that are docstrings."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _named(node, docstrings):
    """Every name ``node`` mentions: ``Name`` ids, ``Attribute`` attrs,
    import aliases and identifier-valued strings (``bench/tracer.py``'s
    ``PATCHES`` names its targets so), docstrings aside."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
            if sub.asname:
                yield sub.asname
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier() and id(sub) not in docstrings):
            yield sub.value


def _defs(body, prefix, module, owner=None):
    """``(dotted name, name, node, enclosing class)`` of every function,
    class and method under ``body`` and of every module-level
    assignment target, looking inside ``if`` / ``try`` / ``with``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            dotted = f"{prefix}.{node.name}"
            yield dotted, node.name, node, owner
            inner = node.name if isinstance(node, ast.ClassDef) else None
            yield from _defs(node.body, dotted, module, inner)
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in (node.body, getattr(node, "orelse", []),
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _defs(block, prefix, module, owner)
        elif prefix == module and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{prefix}.{name.id}", name.id, node, None


def _is_hook(module, owner, name):
    """A name something outside ``repro`` calls: a dunder, an AST
    visitor's ``visit_*``, an ``_on_*`` handler, or a method a base
    class from outside ``repro`` declares (an asyncio protocol's
    ``connection_made``, say)."""
    if (name.startswith("__") and name.endswith("__")) \
            or name.startswith(("visit_", "_on_")):
        return True
    if owner is None:
        return False
    cls = getattr(importlib.import_module(module), owner, None)
    return cls is not None and any(
        name in vars(base)
        for base in cls.__mro__[1:]
        if not base.__module__.startswith("repro")
    )


def test_every_def_is_named_outside_tests():
    import repro

    uses = collections.Counter()
    defs = []  # (dotted, name, module, enclosing class, uses inside it)
    for directory in CALLERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = _docstrings(tree)
            uses.update(_named(tree, docstrings))
            if PACKAGE not in path.parents:
                continue
            parts = path.relative_to(SRC).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            for dotted, name, node, owner in _defs(tree.body, module, module):
                inside = sum(n == name for n in _named(node, docstrings))
                defs.append((dotted, name, module, owner, inside))

    orphans, stale = [], []
    for dotted, name, module, owner, inside in defs:
        alive = (
            uses[name] > inside
            or repro._API.get(name) == module
            or _is_hook(module, owner, name)
        )
        if dotted in UNREACHED and alive:
            stale.append(dotted)
        elif not alive and dotted not in UNREACHED and module not in UNREACHED:
            orphans.append(dotted)
    assert not orphans, (
        f"only tests name {orphans}: delete them with their tests, give "
        "them a caller, or move them beside the test that uses them"
    )
    assert not stale, f"waived defs are named now: {stale}"
    unknown = set(UNREACHED) - {d[0] for d in defs} - set(_module_files())
    assert not unknown, f"waivers name no module or def: {sorted(unknown)}"
