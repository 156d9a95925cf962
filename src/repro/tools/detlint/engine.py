"""The lint engine: walk files, run rules, apply pragmas.

:func:`lint_paths` is the single entry point the CLI and the test
suite share.  Per file it: classifies (protocol or not), parses (one
AST, shared by every rule), runs the rule visitors on protocol code,
and filters through pragmas (defective/stale pragmas become
violations).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.tools.detlint.classify import FileClass, classify
from repro.tools.detlint.model import FileContext, Violation
from repro.tools.detlint.pragmas import apply_pragmas, parse_pragmas
from repro.tools.detlint.rules import RULES


@dataclasses.dataclass
class LintResult:
    """Everything one lint run found."""

    files: List[FileClass] = dataclasses.field(default_factory=list)
    violations: List[Violation] = dataclasses.field(default_factory=list)
    suppressed: List[Violation] = dataclasses.field(default_factory=list)
    parse_errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The gate: no violations, no parse errors."""
        return not (self.violations or self.parse_errors)


def iter_py_files(paths: Sequence[Path]) -> Iterable[Path]:
    """Expand files/directories into ``.py`` files, sorted, once each."""
    seen = set()
    out: List[Path] = []
    for p in paths:
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for f in candidates:
            if "__pycache__" in f.parts:
                continue
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                out.append(f)
    return out


def lint_file(
    path: Path,
) -> Tuple[FileClass, List[Violation], List[Violation], Optional[str]]:
    """Lint one file: (fclass, kept, suppressed, parse_error)."""
    fclass = classify(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return fclass, [], [], f"{fclass.relpath}: unreadable ({exc})"
    try:
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError) as exc:
        # a NUL byte is a SyntaxError without a line number on newer
        # interpreters, a ValueError on older ones
        lineno = getattr(exc, "lineno", None)
        where = fclass.relpath if lineno is None \
            else f"{fclass.relpath}:{lineno}"
        msg = getattr(exc, "msg", str(exc))
        return fclass, [], [], f"{where}: syntax error: {msg}"
    ctx = FileContext(fclass, source)
    if fclass.protocol:
        for rule in RULES:
            rule.visitor(rule, ctx).visit(tree)
    pragmas, bad = parse_pragmas(ctx)
    kept, suppressed = apply_pragmas(ctx, pragmas)
    kept.extend(bad)
    kept.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return fclass, kept, suppressed, None


def lint_paths(paths: Sequence) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (files and/or
    directories, str or Path); each file's package root is
    auto-detected (see :func:`~repro.tools.detlint.classify
    .find_package_root`)."""
    result = LintResult()
    for path in iter_py_files([Path(p) for p in paths]):
        fclass, kept, suppressed, err = lint_file(path)
        result.files.append(fclass)
        result.violations.extend(kept)
        result.suppressed.extend(suppressed)
        if err is not None:
            result.parse_errors.append(err)
    return result
