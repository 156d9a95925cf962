"""``python -m repro lint [paths]`` -- the determinism linter's CLI.

Lints ``src`` when no path is given.  Exit codes: 0 clean (pragma
waivers allowed), 1 violations or parse errors, 2 a missing path.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from repro.tools.detlint.engine import LintResult, lint_paths


def text_report(result: LintResult) -> str:
    """The terminal report: violations, then a one-line verdict."""
    lines = [v.format() for v in result.violations]
    lines.extend(f"{err}  [parse-error]" for err in result.parse_errors)
    by_rule = Counter(v.rule_id for v in result.violations)
    lines.append(
        f"checked {len(result.files)} file(s): "
        f"{len(result.violations)} violation(s)"
        + (f" ({', '.join(f'{k} x{by_rule[k]}' for k in sorted(by_rule))})"
           if by_rule else "")
        + f", {len(result.suppressed)} pragma-waived"
    )
    lines.append("det-lint: " + ("OK" if result.ok else "FAILED"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="determinism static analysis of protocol code",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src)",
    )
    paths = p.parse_args(argv).paths or ["src"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2
    result = lint_paths(paths)
    print(text_report(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
