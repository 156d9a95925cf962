#!/usr/bin/env python3
"""Lines of ``src/`` a change adds, deletes and moves against a parent.

``python3 scripts/loc.py --parent COMMIT`` (or ``make loc
PARENT=COMMIT``) diffs the working tree's ``src/`` against ``COMMIT``
and prints, per file and in total, the lines added and deleted (git's
counts) and how many of the deleted lines moved: a deleted non-blank
line is *moved* when its stripped text is added somewhere in the same
diff, each added line pairing with at most one deleted line.  Renamed
files count as deleted and added, so their lines count as moved.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``@@ -start[,old] +start[,new] @@``: a missing count means one line
_HUNK = re.compile(r"@@ -\d+(?:,(\d+))? \+\d+(?:,(\d+))? @@")


def count_lines(diff: str) -> Dict[str, List[int]]:
    """``{path: [added, deleted, moved]}`` of a unified diff's text.

    ``moved`` is a subset of ``deleted``; deleted lines pair with added
    ones in the order the diff lists them.  Hunk headers say how many
    lines follow, so a body line that looks like a header is counted
    as a body line.
    """
    counts: Dict[str, List[int]] = {}
    deleted: List[Tuple[str, str]] = []  # (path, stripped text)
    added: Counter = Counter()
    old = path = ""
    left = 0  # body lines still to come in the current hunk
    for line in diff.splitlines():
        if line.startswith("\\"):  # "\ No newline at end of file"
            continue
        if left:
            left -= 1
            sign, text = line[:1], line[1:].strip()
            if sign == "+":
                counts[path][0] += 1
                added[text] += bool(text)
            elif sign == "-":
                counts[path][1] += 1
                if text:
                    deleted.append((path, text))
        elif line.startswith("--- "):
            old = line[4:]
        elif line.startswith("+++ "):
            side = old if line[4:] == "/dev/null" else line[4:]
            path = side[2:] if side[:2] in ("a/", "b/") else side
            counts.setdefault(path, [0, 0, 0])
        elif line.startswith("@@ "):
            ranges = _HUNK.match(line)
            if ranges is None:
                raise ValueError(f"bad hunk header: {line!r}")
            left = sum(int(n) if n is not None else 1
                       for n in ranges.group(1, 2))
    for where, text in deleted:
        if added[text]:
            added[text] -= 1
            counts[where][2] += 1
    return counts


def render(counts: Dict[str, List[int]]) -> str:
    rows = [f"{'added':>7} {'deleted':>7} {'moved':>7} {'net':>7}  file"]
    total = [0, 0, 0]
    for path in sorted(counts):
        a, d, m = counts[path]
        rows.append(f"{a:>7} {d:>7} {m:>7} {a - d:>+7}  {path}")
        total = [t + c for t, c in zip(total, counts[path])]
    a, d, m = total
    rows.append(f"{a:>7} {d:>7} {m:>7} {a - d:>+7}  total")
    return "\n".join(rows)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/loc.py",
        description="src/ lines added, deleted and moved against a parent "
        "commit (moved lines are counted within the deleted ones)",
    )
    parser.add_argument("--parent", required=True, help="commit to diff against")
    args = parser.parse_args(argv)
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-renames", "-U0", args.parent,
         "--", "src/"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    print(render(count_lines(diff)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
