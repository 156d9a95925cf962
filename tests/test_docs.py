"""Documentation stays truthful: tutorial code runs, README structure
matches the repository, every public module has a docstring."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

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
