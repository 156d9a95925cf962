"""DET003 loop-closure-capture: late binding of loop variables.

Python closures capture *variables*, not values.  A ``lambda``, nested
``def``, or generator expression created inside a loop and consumed
after it sees every iteration variable at its final value -- which is
how PR 7's stats merge stamped *every* shard's stream with the *last*
shard id (the keying genexp was built per shard but drained after the
loop).

Flagged: a deferred closure (lambda / nested def / genexp) nested in a
``for`` loop or comprehension, whose deferred body reads an enclosing
loop variable.  Not flagged:

* default-argument freezing -- ``lambda m, _h=h: _h(m)`` (defaults are
  evaluated eagerly, so the body reads ``_h``, not the loop variable);
* a factory call -- ``handlers.append(make_handler(sid))`` (the value
  crosses a call boundary, re-binding it);
* the *first* iterable of a genexp, which Python evaluates eagerly;
* closures consumed in place by an eager call (``sorted(...,
  key=lambda ...)``, ``list(genexp)``, ``sum(genexp)``, ...).
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.tools.detlint.model import FileContext, Rule
from repro.tools.detlint.rules._util import target_names

#: callables that fully consume a genexp/lambda argument before returning
EAGER_CONSUMERS = frozenset({
    "list", "tuple", "set", "dict", "frozenset", "sorted", "sum",
    "min", "max", "any", "all", "fsum", "join", "prod", "mean",
    "median", "extend", "update",
})

_CLOSURE_NODES = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef,
                  ast.GeneratorExp)
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _free_reads(node: ast.AST, shadowed: Set[str]) -> Set[str]:
    """Names read anywhere under ``node`` minus locally-bound ones."""
    bound = set(shadowed)
    reads: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            if isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            else:
                bound.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
            for a in (
                list(n.args.posonlyargs) + list(n.args.args)
                + list(n.args.kwonlyargs)
            ):
                bound.add(a.arg)
            if n.args.vararg:
                bound.add(n.args.vararg.arg)
            if n.args.kwarg:
                bound.add(n.args.kwarg.arg)
    return reads - bound


def _deferred_reads(closure: ast.AST) -> Set[str]:
    """Names the closure will read *later*, when it finally runs.

    Eager parts are excluded: parameter defaults of lambdas/defs, and
    the first iterable of a generator expression.
    """
    if isinstance(closure, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
        args = closure.args
        params = {
            a.arg for a in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            )
        }
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        body = closure.body if isinstance(closure, ast.Lambda) \
            else closure
        reads: Set[str] = set()
        if isinstance(closure, ast.Lambda):
            reads = _free_reads(body, params)
        else:
            for stmt in closure.body:
                reads |= _free_reads(stmt, params)
        return reads
    if isinstance(closure, ast.GeneratorExp):
        own = set()
        for gen in closure.generators:
            own |= target_names(gen.target)
        reads = _free_reads(closure.elt, own)
        for i, gen in enumerate(closure.generators):
            if i > 0:  # generators[0].iter is evaluated eagerly
                reads |= _free_reads(gen.iter, own)
            for cond in gen.ifs:
                reads |= _free_reads(cond, own)
        return reads
    return set()


class ClosureVisitor(ast.NodeVisitor):
    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.loop_vars: List[Set[str]] = []  # one frame per active loop
        self.consumed: Set[int] = set()  # ids of eagerly-consumed closures

    # -- eager-consumption marking -------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name in EAGER_CONSUMERS:
            for arg in node.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                if isinstance(inner, _CLOSURE_NODES):
                    self.consumed.add(id(inner))
            for kw in node.keywords:
                if isinstance(kw.value, _CLOSURE_NODES):
                    self.consumed.add(id(kw.value))
        self.generic_visit(node)

    # -- loop frames ---------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)  # the iterable evaluates outside the frame
        self.loop_vars.append(target_names(node.target))
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.loop_vars.pop()

    def _visit_comprehension(self, node: ast.AST) -> None:
        gens = node.generators  # type: ignore[attr-defined]
        own: Set[str] = set()
        for gen in gens:
            own |= target_names(gen.target)
        self.visit(gens[0].iter)
        self.loop_vars.append(own)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)  # type: ignore[attr-defined]
        for i, gen in enumerate(gens):
            if i > 0:
                self.visit(gen.iter)
            for cond in gen.ifs:
                self.visit(cond)
        self.loop_vars.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- the deferred closures -----------------------------------------

    def _check_closure(self, node: ast.AST, kind: str) -> bool:
        """Report a late-binding capture; True when one was found."""
        if not self.loop_vars or id(node) in self.consumed:
            return False
        active: Set[str] = set()
        for frame in self.loop_vars:
            active |= frame
        captured = sorted(_deferred_reads(node) & active)
        if captured:
            self.ctx.report(
                self.rule, node,
                f"{kind} inside a loop captures loop variable(s) "
                f"{', '.join(repr(c) for c in captured)} by reference; "
                f"every deferred evaluation sees the final value. "
                f"Freeze with a default argument (x=x) or build it in "
                f"a factory function",
            )
            return True
        return False

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_closure(node, "lambda")
        self.generic_visit(node)

    def _visit_funcdef(self, node: ast.AST) -> None:
        self._check_closure(node, f"nested def {node.name!r}")  # type: ignore[attr-defined]
        # a new function scope: its own loops start fresh
        outer, self.loop_vars = self.loop_vars, []
        self.generic_visit(node)
        self.loop_vars = outer

    visit_FunctionDef = _visit_funcdef
    visit_AsyncFunctionDef = _visit_funcdef

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if self._check_closure(node, "generator expression"):
            return  # do not double-report its innards
        self._visit_comprehension(node)


RULE = Rule("DET003", "loop-closure-capture", ClosureVisitor)
