"""Documentation stays truthful: tutorial code runs, README structure
matches the repository, every public module has a docstring."""

import ast
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestTutorialBlocks:
    def test_all_python_blocks_execute(self):
        src = (REPO / "docs" / "TUTORIAL.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", src, re.S)
        assert len(blocks) >= 5
        env = {}
        for i, block in enumerate(blocks):
            with contextlib.redirect_stdout(io.StringIO()):
                exec(compile(block, f"<tutorial-block-{i}>", "exec"), env)


class TestReadme:
    def test_quickstart_block_executes(self):
        src = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", src, re.S)
        assert blocks, "README must contain a quickstart block"
        env = {}
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(blocks[0], "<readme-quickstart>", "exec"), env)

    def test_referenced_files_exist(self):
        src = (REPO / "README.md").read_text()
        for path in ("DESIGN.md", "EXPERIMENTS.md", "docs/API.md"):
            assert path.split("/")[-1] in src
            assert (REPO / path).exists()

    def test_example_scripts_listed_and_present(self):
        src = (REPO / "README.md").read_text()
        for script in re.findall(r"examples/(\w+\.py)", src):
            assert (REPO / "examples" / script).exists(), script


class TestDocstrings:
    def test_every_public_module_documented(self):
        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            if not (mod.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_api_members_documented(self):
        import repro

        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_api_table_names_defining_modules(self):
        import repro

        # a re-exporting module (SystemStats via repro.cluster.system)
        # is a second path to the name; the table holds the first one
        drift = {
            name: (module, getattr(repro, name).__module__)
            for name, module in repro._API.items()
            if getattr(repro, name).__module__ != module
        }
        assert not drift, drift
        assert set(repro.__all__) <= set(dir(repro))
        env = {}
        exec("from repro import *", env)
        assert set(repro.__all__) <= set(env)
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name


class TestQuotedCommands:
    """Every ``python -m repro <subcommand>`` and ``make <target>`` the
    docs quote exists (``bench/README.md`` is the benchmark's own file
    and is not checked here)."""

    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/API.md")

    def test_quoted_commands_resolve(self):
        from repro.experiments.campaign import EXPERIMENT_NAMES

        main_src = (REPO / "src" / "repro" / "__main__.py").read_text()
        subcommands = set(re.findall(r'argv\[0\] == "([\w-]+)"', main_src))
        assert "run" in subcommands and "shard-check" in subcommands
        makefile = (REPO / "Makefile").read_text()
        targets = set(
            re.search(r"^\.PHONY:(.*)$", makefile, re.M).group(1).split()
        )
        runnable = subcommands | set(EXPERIMENT_NAMES)
        stale = []
        for doc in self.DOCS:
            src = (REPO / doc).read_text()
            # fenced blocks and inline spans: prose may say "make the"
            code = "\n".join(re.findall(r"```.*?```|`[^`]+`", src, re.S))
            for word in re.findall(r"python3? -m repro\s+([a-z][\w-]*)", code):
                if word not in runnable:
                    stale.append(f"{doc}: python -m repro {word}")
            for word in re.findall(r"\bmake\s+([a-z][\w-]*)", code):
                if word not in targets:
                    stale.append(f"{doc}: make {word}")
        assert not stale, stale


class TestQuotedNames:
    """Every backticked ``repro.x.y`` name in the docs and the verify
    skill resolves by import: the longest importable module prefix, then
    attributes; every bare ``Class.attr`` resolves against the classes
    defined under ``src/repro`` (and ``bench/``).  Names the docs quote
    *as removed* are listed here, and must stay unresolvable."""

    DOCS = (
        "README.md", "docs/API.md", "docs/TUTORIAL.md", "DESIGN.md",
        "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
    )
    REMOVED = frozenset({
        "repro.analysis.export",
        "repro.analysis.fairness",
        "repro.client.TerraDirClient",
        "repro.core.maps.NodeMap",
        "repro.core.maps.select_host",
        "repro.experiments.campaign._call_spec",
        "repro.experiments.common.run_workload",
        "repro.experiments.parallel.ParallelTaskError",
        "repro.experiments.parallel._describe_kwargs",
        "repro.experiments.parallel._invoke",
        "repro.experiments.runner",
        "repro.namespace.graph",
        "repro.net.codec.require_encodable",
        "repro.net.codec.supported_types",
        "repro.net.dispatch",
        "repro.server.peer.PEER_DISPATCH",
        "repro.runtime.async_runtime.AsyncHandle",
        "repro.sim.profile",
        "repro.sim.memsize.rss_bytes",
        "repro.sim.rng.poisson_arrival_times",
        "repro.sim.shardcodec.ShardCodecError",
        "repro.sim.stats.Counter",
        "repro.tools.detlint.rules.closures._COMP_NODES",
        "repro.workload.streams.flash_crowd_stream",
        "repro.workload.trace.EmpiricalWorkloadDriver",
        "repro.workload.trace.replay_trace",
    })

    @staticmethod
    def _resolves(name):
        parts = name.split(".")
        for i in range(len(parts), 0, -1):
            module_name = ".".join(parts[:i])
            try:
                obj = importlib.import_module(module_name)
            except ModuleNotFoundError as exc:
                if exc.name != module_name:
                    raise
                continue
            for attr in parts[i:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        return False

    def test_quoted_names_resolve(self):
        quoted = set()
        for doc in self.DOCS:
            src = (REPO / doc).read_text()
            for span in re.findall(r"```.*?```|`[^`]+`", src, re.S):
                quoted.update(re.findall(r"\brepro(?:\.\w+)+", span))
        assert len(quoted) > 50
        stale = sorted(
            n for n in quoted - self.REMOVED if not self._resolves(n)
        )
        assert not stale, stale
        assert not [n for n in self.REMOVED if self._resolves(n)]

    #: ``Class.attr`` names the docs quote *as removed*
    REMOVED_ATTRS = frozenset({
        "AncestorIndex._take_over",
        "BloomFilter.expected_fp_rate",
        "BloomFilter.fill_ratio",
        "BloomFilter.set_bits",
        "BloomFilter.update",
        "Campaign._chunks",
        "Campaign.max_retries",
        "CampaignStats.retried",
        "Engine.reset",
        "LRUCache.remove_server",
        "MetaStore.has_data",
        "Namespace.is_ancestor",
        "Namespace.is_leaf",
        "Namespace.label_of",
        "Namespace.nodes_at_depth",
        "Namespace.route_path",
        "NodeMap.add_preferred",
        "NodeMeta.remove_attribute",
        "NodeRanking.__contains__",
        "NodeRanking.__len__",
        "NodeRanking.decay",
        "NodeRanking.total_weight",
        "NodeRanking.track",
        "NodeRanking.track_many",
        "NodeRanking.weight",
        "Peer.dispatch_registry",
        "Peer.owned",
        "Peer.pin_contexts",
        "Peer.send_control",
        "QueryTrace.scaled",
        "ReplicaMap.add_preferred",
        "ReplicaStore.track_owned",
        "ReplicationManager.in_session",
        "ShardSystem._next_arrival",
        "ShardSystem.feed",
        "ShardTransport.n_in_flight",
        "System.hosts_of",
        "SystemStats.completion_fraction",
        "Transport.n_in_flight",
        "ZipfSampler.pmf",
    })

    #: quoted classes that live in the standard library
    STDLIB = {
        "BaseEventLoop": "asyncio.base_events",
        "TimerHandle": "asyncio.events",
        "_SelectorSocketTransport": "asyncio.selector_events",
    }

    @staticmethod
    def _class_names(*roots):
        """``{class: (names it defines, base class names)}`` for every
        class under ``roots``: methods, nested classes, class-body
        assignments and ``self.x`` stores.  Same-named classes merge."""
        found = {}
        for root in roots:
            for path in root.rglob("*.py"):
                for cls in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(cls, ast.ClassDef):
                        continue
                    names, bases = found.setdefault(cls.name, (set(), set()))
                    bases.update(b.id for b in cls.bases
                                 if isinstance(b, ast.Name))
                    for stmt in cls.body:
                        if isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef)):
                            names.add(stmt.name)
                        for node in ast.walk(stmt):
                            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                                targets = getattr(node, "targets", None) \
                                    or [node.target]
                                for t in targets:
                                    if isinstance(t, ast.Name) and stmt is node:
                                        names.add(t.id)
                                    elif (isinstance(t, ast.Attribute)
                                          and isinstance(t.value, ast.Name)
                                          and t.value.id == "self"):
                                        names.add(t.attr)
        return found

    def test_quoted_class_attributes_resolve(self):
        classes = self._class_names(REPO / "src" / "repro", REPO / "bench")

        def resolves(cls, attr, depth=0):
            if cls in self.STDLIB:
                obj = getattr(importlib.import_module(self.STDLIB[cls]), cls)
                return hasattr(obj, attr)
            if cls not in classes or depth > 8:
                return False
            names, bases = classes[cls]
            if attr.endswith("*"):  # ``SoftStateAbsorber.absorb_*``
                if any(n.startswith(attr[:-1]) for n in names):
                    return True
            elif attr in names:
                return True
            return any(resolves(b, attr, depth + 1) for b in bases)

        quoted = set()
        for doc in self.DOCS:
            src = (REPO / doc).read_text()
            for span in re.findall(r"```.*?```|`[^`]+`", src, re.S):
                quoted.update(re.findall(
                    r"(?<![\w.])(_?[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*"
                    r"\.\w+\*?)", span
                ))
        assert len(quoted) > 50
        split = {n: n.split(".") for n in quoted | self.REMOVED_ATTRS}
        stale = sorted(
            n for n in quoted - self.REMOVED_ATTRS if not resolves(*split[n])
        )
        assert not stale, stale
        assert not [n for n in self.REMOVED_ATTRS if resolves(*split[n])]

    #: environment variables the docs quote *as removed*
    REMOVED_VARIABLES = frozenset({"REPRO_SHARD_BACKEND"})

    def test_quoted_variables_are_read(self):
        """Every backticked ``REPRO_*`` variable in the docs is read
        under ``src/repro`` (as a string literal in code)."""
        quoted = set()
        for doc in self.DOCS:
            src = (REPO / doc).read_text()
            for span in re.findall(r"```.*?```|`[^`]+`", src, re.S):
                quoted.update(re.findall(r"\bREPRO_[A-Z_]+\b", span))
        read = set()
        for path in (REPO / "src" / "repro").rglob("*.py"):
            read.update(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']",
                                   path.read_text()))
        assert {"REPRO_SCALE", "REPRO_SHARDS", "REPRO_WORKERS"} <= quoted
        assert not sorted(quoted - self.REMOVED_VARIABLES - read)
        assert not sorted(self.REMOVED_VARIABLES & read)


class TestScriptImports:
    """Every ``from repro... import name`` in the example scripts and the
    figure benchmarks resolves: neither runs in tier-1, so a name moved
    or deleted would otherwise only fail the next reader."""

    def test_imported_names_resolve(self):
        scripts = sorted((REPO / "examples").glob("*.py"))
        scripts += sorted((REPO / "benchmarks").glob("*.py"))
        names = []
        for path in scripts:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                    node.module or ""
                ).partition(".")[0] == "repro":
                    names += [f"{node.module}.{a.name}" for a in node.names]
        assert len(names) > 50
        stale = [n for n in names if not TestQuotedNames._resolves(n)]
        assert not stale, stale
