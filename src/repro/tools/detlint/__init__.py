"""detlint -- determinism static analysis of protocol code.

The repo's central invariant is that fixed-seed runs produce
bit-identical fingerprints across the serial engine, the sharded
windowed coordinator, and the cached campaign layer.  That invariant is
easy to break with code that *looks* innocent -- a module-level
``random.randrange``, an ``engine or make_engine()`` default that drops
empty-but-valid Engines, a generator expression that late-binds a loop
variable -- and expensive to re-prove with end-to-end equality tests.

``detlint`` encodes those three bug classes as AST rules so they fail
at lint time instead of surfacing as 1-ulp fingerprint drift three PRs
later.  Run it as ``python -m repro lint``; see
:mod:`repro.tools.detlint.rules` for the rule catalog, DESIGN.md
section 13 for the rationale, and docs/API.md for the API.

Public API::

    from repro.tools.detlint import lint_paths, LintResult, Violation

    result = lint_paths(["src"])
    for v in result.violations:
        print(v.format())
"""

from repro.tools.detlint.engine import LintResult, lint_paths
from repro.tools.detlint.model import Rule, Violation
from repro.tools.detlint.rules import RULES

__all__ = ["LintResult", "RULES", "Rule", "Violation", "lint_paths"]
