"""DET002 sized-presence-truthiness: ``len()`` is not ``is None``.

An object whose class defines ``__len__`` is *falsy when empty*.  For
presence-typed objects -- an Engine, a dispatch registry, a namespace
-- emptiness is a valid state, not absence, so boolean tests silently
misfire exactly when the object is empty:

* ``engine = engine or make_engine()`` drops a caller's fresh (empty)
  Engine and fabricates a new one -- the PR 7 ``build_system`` bug.
  Flagged for any ``x or <ctor>()`` where the fallback constructs a
  configured sized type or a mutable builtin (``set()``/``[]``/``{}``:
  content-equivalent but *identity*-divergent -- later mutations are
  lost).
* ``if engine:`` / ``not engine`` on a parameter annotated with a
  sized-presence type (plain or ``Optional``) conflates "absent" with
  "empty".  Write ``is None`` or an explicit ``len(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.tools.detlint.model import FileContext, Rule
from repro.tools.detlint.rules._util import terminal_name

#: classes defining ``__len__`` whose emptiness does NOT mean absence
SIZED_PRESENCE_TYPES = frozenset({
    "Engine", "DispatchRegistry", "Namespace", "SystemStats",
    "ReplicaMap", "NodeMap", "DigestDirectory", "AncestorIndex",
    "NodeRanking", "TimerWheel",
})

#: constructors/factories whose result as an ``or`` fallback is a bug
SIZED_CTORS = SIZED_PRESENCE_TYPES | frozenset({
    "make_engine", "set", "dict", "list", "frozenset",
    "Counter", "deque", "defaultdict", "OrderedDict",
})


def _annotation_type(ann: Optional[ast.AST]) -> Optional[str]:
    """The sized-presence type named by an annotation, unwrapping
    ``Optional[X]`` / ``Union[X, None]`` / ``X | None``."""
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        return ann.id if ann.id in SIZED_PRESENCE_TYPES else None
    if isinstance(ann, ast.Attribute):
        return ann.attr if ann.attr in SIZED_PRESENCE_TYPES else None
    if isinstance(ann, ast.Subscript):
        head = terminal_name(ann.value)
        if head in ("Optional", "Union"):
            inner = ann.slice
            parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for p in parts:
                got = _annotation_type(p)
                if got is not None:
                    return got
        return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotation_type(ann.left) or _annotation_type(ann.right)
    return None


class TruthinessVisitor(ast.NodeVisitor):
    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        # names annotated with a sized-presence type in the current scope
        self.annotated: Dict[str, str] = {}

    # -- scope handling ------------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        outer = self.annotated
        self.annotated = {}
        args = node.args  # type: ignore[attr-defined]
        for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        ):
            t = _annotation_type(a.annotation)
            if t is not None:
                self.annotated[a.arg] = t
        self.generic_visit(node)
        self.annotated = outer

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        t = _annotation_type(node.annotation)
        if t is not None and isinstance(node.target, ast.Name):
            self.annotated[node.target.id] = t
        self.generic_visit(node)

    # -- check A: `x or <sized ctor>()` --------------------------------

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        reported = False
        if isinstance(node.op, ast.Or):
            for operand in node.values[1:]:
                bad = self._sized_fallback(operand)
                if bad is not None:
                    self.ctx.report(
                        self.rule, node,
                        f"'or {bad}' fallback also triggers when the "
                        f"left side is present-but-empty (classes with "
                        f"__len__ are falsy at len()==0); use an "
                        f"explicit 'if x is None' default",
                    )
                    reported = True
        if not reported:
            # every operand but the last is truthiness-tested
            for operand in node.values[:-1]:
                self._check_truthiness(operand, context="boolean test")
        self.generic_visit(node)

    @staticmethod
    def _sized_fallback(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in SIZED_CTORS:
                return f"{name}(...)" if node.args or node.keywords \
                    else f"{name}()"
        # empty mutable literals: content-equivalent, identity-divergent
        if isinstance(node, ast.List) and not node.elts:
            return "[]"
        if isinstance(node, ast.Dict) and not node.keys:
            return "{}"
        return None

    # -- check B: truthiness tests on annotated names ------------------

    def _check_truthiness(self, test: ast.AST, context: str) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            test = test.operand
        if isinstance(test, ast.Name) and test.id in self.annotated:
            t = self.annotated[test.id]
            self.ctx.report(
                self.rule, test,
                f"truthiness {context} on {test.id!r} (annotated "
                f"{t}): an empty {t} is falsy but present; test "
                f"'is None' or 'len({test.id})'",
            )

    def visit_If(self, node: ast.If) -> None:
        self._check_truthiness(node.test, context="test")
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_truthiness(node.test, context="test")
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._check_truthiness(node.test, context="conditional expression")
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._check_truthiness(node.test, context="assert")
        self.generic_visit(node)


RULE = Rule("DET002", "sized-presence-truthiness", TruthinessVisitor)
