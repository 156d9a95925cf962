"""Small AST helpers shared by the rule visitors."""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set, Tuple


class ImportMap:
    """Resolves local names back to ``module.attr`` origins.

    Tracks ``import m``, ``import m as n``, and ``from m import a as
    b`` so a rule can ask "does this expression denote
    ``random.randrange``?" regardless of aliasing.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}  # local name -> module path
        self.names: Dict[str, Tuple[str, str]] = {}  # local -> (mod, attr)

    def collect(self, tree: ast.AST) -> "ImportMap":
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.modules[a.asname or a.name.split(".")[0]] = a.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    self.names[a.asname or a.name] = (node.module, a.name)
        return self

    def resolve(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """``(module, attr)`` denoted by a Name/Attribute, if importable.

        ``random.randrange`` -> ``("random", "randrange")``;
        ``datetime.datetime.now`` -> ``("datetime.datetime", "now")``;
        a bare name imported via ``from x import y`` -> ``("x", "y")``.
        """
        if isinstance(node, ast.Name):
            got = self.names.get(node.id)
            if got is not None:
                return got
            mod = self.modules.get(node.id)
            if mod is not None:
                return (mod, "")
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            mod, attr = base
            if attr:
                mod = f"{mod}.{attr}"
            return (mod, node.attr)
        return None


def target_names(target: ast.AST) -> Set[str]:
    """Every plain name bound by an assignment/loop target."""
    out: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            out.add(node.id)
    return out


def terminal_name(func: ast.AST) -> Optional[str]:
    """The last identifier of a call target: ``a.b.C`` -> ``C``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
