"""The mypy strict gate, checked without mypy.

``pyproject.toml`` names the packages mypy checks strictly
(``[tool.mypy] packages``, each with ``disallow_untyped_defs`` and
``disallow_incomplete_defs`` in an override).  mypy is not a test
dependency, so this module checks the part of that gate a parser can:
every ``def`` in those packages annotates each parameter (``self`` /
``cls`` of a method aside, as mypy allows) and its return.  A package
added to ``packages`` is walked from then on.
"""

import ast
import re
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def _mypy_config() -> Dict[str, object]:
    """``packages`` and the override blocks of ``[tool.mypy]``: TOML
    arrays of strings are Python list literals, so no TOML parser is
    needed (Python 3.9 has none)."""
    text = (ROOT / "pyproject.toml").read_text()
    packages = ast.literal_eval(
        re.search(r"^packages = (\[.*?\])$", text, re.M | re.S).group(1))
    overrides = []
    for block in text.split("[[tool.mypy.overrides]]")[1:]:
        block = block.split("\n[", 1)[0]  # up to the next table
        modules = ast.literal_eval(
            re.search(r"^module = (\[.*?\])", block, re.M | re.S).group(1))
        flags = dict(re.findall(r"^(\w+) = (\w+)$", block, re.M))
        overrides.append((modules, flags))
    return {"packages": packages, "overrides": overrides}


def unannotated(source: str) -> List[str]:
    """``name:line`` of each def in ``source`` missing a parameter or
    return annotation."""
    out: List[str] = []

    def walk(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if in_class and not static:
                    params = params[1:]  # self / cls
                params = params + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                if child.returns is None or any(
                        p.annotation is None for p in params):
                    out.append(f"{child.name}:{child.lineno}")
                walk(child, False)
            else:
                walk(child, isinstance(child, ast.ClassDef))

    walk(ast.parse(source), False)
    return out


class TestStrictPackages:
    def test_each_package_carries_the_strict_flags(self):
        cfg = _mypy_config()
        assert {"repro.filters", "repro.cluster"} <= set(cfg["packages"])
        for pkg in cfg["packages"]:
            flags = [f for mods, f in cfg["overrides"] if f"{pkg}.*" in mods]
            assert any(f.get("disallow_untyped_defs") == "true"
                       and f.get("disallow_incomplete_defs") == "true"
                       for f in flags), pkg
            assert not any(f.get("ignore_errors") == "true" for f in flags), pkg

    def test_every_def_is_annotated(self):
        missing = []
        for pkg in _mypy_config()["packages"]:
            for path in sorted((ROOT / "src" / Path(*pkg.split("."))).rglob("*.py")):
                missing += [f"{path.relative_to(ROOT)}:{d}"
                            for d in unannotated(path.read_text())]
        assert not missing, missing

    def test_the_walk_finds_a_missing_annotation(self):
        source = (
            "def f(x: int) -> int: ...\n"
            "def g(x) -> int: ...\n"
            "def h(x: int): ...\n"
            "class C:\n"
            "    def m(self, *args: int) -> None: ...\n"
            "    def n(self, **kw) -> None: ...\n"
            "    @staticmethod\n"
            "    def s(x) -> None: ...\n"
            "    def outer(self) -> None:\n"
            "        def inner(y): ...\n"
        )
        assert unannotated(source) == ["g:2", "h:3", "n:6", "s:8", "inner:10"]
