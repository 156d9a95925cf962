"""Suppression pragmas: ``# det: ok(<rule>) -- <justification>``.

A violation may be waived in place, but never silently: the pragma
must name the rule (kebab-case name or ``DETnnn`` id) *and* carry a
justification after ``--``.  A pragma suppresses violations of the
named rules on its own line, or -- when it is a standalone comment --
on the next non-comment line, so a justification may run over several
comment lines above a long statement::

    # det: ok(sized-presence-truthiness) -- an empty selection means
    # "every server"; emptiness is the signal here, not absence
    wanted = servers or list(all_servers)

Defective pragmas are themselves violations (rule ``DET000``
``bad-pragma``): unknown rule names, missing justification, and
pragmas that suppress nothing (stale waivers must be deleted, not
accumulated).  Comments are extracted with :mod:`tokenize`, so
pragma-shaped text inside string literals is ignored.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Dict, List, Tuple

from repro.tools.detlint.model import FileContext, Violation
from repro.tools.detlint.rules import RULES

PRAGMA_PREFIX_RE = re.compile(r"#\s*det\s*:")
PRAGMA_RE = re.compile(
    r"#\s*det\s*:\s*ok\s*\(\s*(?P<rules>[^)]*?)\s*\)\s*"
    r"(?:--\s*(?P<why>.*\S))?\s*$"
)

BAD_PRAGMA_ID = "DET000"
BAD_PRAGMA_NAME = "bad-pragma"

#: every identifier a pragma may name (``DETnnn`` id or kebab-case
#: name) -> the rule's name
ALIASES: Dict[str, str] = {
    ident: rule.name for rule in RULES for ident in (rule.id, rule.name)
}


@dataclasses.dataclass
class Pragma:
    """One parsed suppression comment."""

    line: int
    col: int
    rules: Tuple[str, ...]  # rule names, aliases resolved
    justification: str
    #: for a comment-only pragma: the next non-comment line it waives
    target_line: int
    used: bool = False

    def covers(self, line: int) -> bool:
        return line in (self.line, self.target_line)


def _bad(ctx: FileContext, line: int, col: int, message: str) -> Violation:
    return Violation(
        rule_id=BAD_PRAGMA_ID,
        rule_name=BAD_PRAGMA_NAME,
        path=ctx.fclass.relpath,
        line=line,
        col=col,
        message=message,
    )


def parse_pragmas(ctx: FileContext) -> Tuple[List[Pragma], List[Violation]]:
    """Extract pragmas from ``ctx.source``; malformed ones become
    ``bad-pragma`` violations."""
    pragmas: List[Pragma] = []
    problems: List[Violation] = []
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(ctx.source).readline)
        )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], []  # the engine reports the parse error separately
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string
        if not PRAGMA_PREFIX_RE.match(text):
            continue
        line, col = tok.start
        m = PRAGMA_RE.match(text)
        if m is None:
            problems.append(_bad(
                ctx, line, col,
                "unparseable det pragma; expected "
                "'# det: ok(<rule>) -- <justification>'",
            ))
            continue
        why = m.group("why") or ""
        names = tuple(
            s.strip() for s in m.group("rules").split(",") if s.strip()
        )
        if not names:
            problems.append(_bad(
                ctx, line, col, "det pragma names no rule"))
            continue
        unknown = [n for n in names if n not in ALIASES]
        if unknown:
            problems.append(_bad(
                ctx, line, col,
                f"det pragma names unknown rule(s) {unknown}; known: "
                f"{', '.join(f'{r.id} {r.name}' for r in RULES)}",
            ))
            continue
        if not why:
            problems.append(_bad(
                ctx, line, col,
                "det pragma without justification; write "
                "'# det: ok(<rule>) -- <why this is deterministic>'",
            ))
            continue
        target = line
        if ctx.snippet(line).startswith("#"):
            # standalone comment: waive the next non-comment line, so a
            # justification may continue over further comment lines
            cursor = line + 1
            while cursor <= len(ctx.lines):
                text = ctx.snippet(cursor)
                if text and not text.startswith("#"):
                    target = cursor
                    break
                cursor += 1
        pragmas.append(Pragma(
            line=line, col=col, rules=tuple(ALIASES[n] for n in names),
            justification=why, target_line=target,
        ))
    return pragmas, problems


def apply_pragmas(
    ctx: FileContext, pragmas: List[Pragma]
) -> Tuple[List[Violation], List[Violation]]:
    """Split ``ctx.violations`` into (kept, suppressed); unused pragmas
    are appended to *kept* as ``bad-pragma`` violations."""
    kept: List[Violation] = []
    suppressed: List[Violation] = []
    for v in ctx.violations:
        waived = False
        for p in pragmas:
            if p.covers(v.line) and v.rule_name in p.rules:
                p.used = True
                waived = True
                break
        (suppressed if waived else kept).append(v)
    for p in pragmas:
        if not p.used:
            kept.append(_bad(
                ctx, p.line, p.col,
                f"stale det pragma ({', '.join(p.rules)}) suppresses "
                f"nothing on line {p.line} or {p.target_line}; "
                f"delete it",
            ))
    return kept, suppressed
