"""The records every rule shares: a rule, the file context, a violation.

A :class:`Rule` couples a stable id (``DET001`` ...), a kebab-case name
(what pragmas reference) and a visitor class; the catalog is the plain
:data:`repro.tools.detlint.rules.RULES` tuple.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, List

from repro.tools.detlint.classify import FileClass


@dataclasses.dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule_id: str
    rule_name: str
    path: str  # classifier-relative posix path (stable across checkouts)
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.rule_name}: {self.message}"
        )


class FileContext:
    """Everything a rule visitor needs about the file under analysis."""

    __slots__ = ("fclass", "source", "lines", "violations")

    def __init__(self, fclass: FileClass, source: str) -> None:
        self.fclass = fclass
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.violations: List[Violation] = []

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                rule_id=rule.id,
                rule_name=rule.name,
                path=self.fclass.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )


@dataclasses.dataclass(frozen=True)
class Rule:
    """One determinism rule: identity and the visitor that checks it."""

    id: str
    name: str
    visitor: Callable[["Rule", FileContext], ast.NodeVisitor]
