#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs ("Citing a claim").

``python3 scripts/pairs.py --parent COMMIT --workload W [--n 10]
[--seeds 1,2] [--seconds S]`` measures the working tree against a parent
commit the way ``bench/README.md`` asks a claim to be measured:

* both sides run from clean copies in a temporary directory -- the
  parent from ``git archive COMMIT``, the change from the working tree's
  tracked and unignored files (uncommitted edits included) -- so neither
  side finds a ``__pycache__`` and nothing is left behind in ``.git``;
* per seed, ``n`` pairs of ``bench/run.py --workload W --seed S
  --seconds S --trace 0``, each side's own ``bench/`` and in its own
  process, alternating which side runs first;
* per end-to-end metric: both medians and quartiles, the pairs the
  change won, and the parent's quartile distance the medians must
  differ by.

Every run is printed as it finishes, so the table can be re-derived.
Exits 1 when a run failed an output check.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def materialise(parent: str, into: Path) -> Dict[str, Path]:
    """Clean copies of both sides under ``into``."""
    sides = {"parent": into / "parent", "change": into / "change"}
    for side in sides.values():
        side.mkdir()
    archive = io.BytesIO(git("archive", "--format=tar", parent))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(sides["parent"])
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, files.decode().split("\0")):
        src = ROOT / rel
        if src.is_file():  # a tracked file deleted in the working tree
            dst = sides["change"] / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())
    return sides


def run_once(side: Path, workload: str, seed: int,
             seconds: float) -> Optional[Dict[str, Any]]:
    """One ``bench/run.py`` child; its result object, or None when it
    printed none."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=side, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None
    out["correct"] = out["correct"] and proc.returncode == 0
    return out


def report(metric: Dict[str, Any], parent: Sequence[float],
           change: Sequence[float]) -> str:
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p)
               for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
    cq1, cmed, cq3 = statistics.quantiles(change, n=4)
    gain = (cmed - pmed) / pmed if higher else (pmed - cmed) / pmed
    return (
        f"  {metric['name']:<14} parent {pmed:>10.6g} [{pq1:.6g}, {pq3:.6g}]"
        f"  change {cmed:>10.6g} [{cq1:.6g}, {cq3:.6g}]"
        f"  better by {gain:+.1%}, wins {wins}/{len(parent) - ties},"
        f" parent IQR {(pq3 - pq1) / pmed:.1%}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare with")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--n", type=int, default=10, help="pairs per seed")
    ap.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]))
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error("quartiles need at least 2 pairs")
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = spec["end_to_end"]

    ok = True
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = materialise(args.parent, Path(tmp))
        for seed in seeds:
            values: Dict[str, Dict[str, List[float]]] = {
                side: {m["name"]: [] for m in metrics} for side in sides
            }
            failed = {side: [0, 0] for side in sides}  # failed, attempted
            for i in range(args.n):
                order = ("parent", "change")[:: 1 if i % 2 == 0 else -1]
                for side in order:
                    out = run_once(sides[side], args.workload, seed,
                                   args.seconds)
                    if out is None:
                        print(f"{side}: run printed no result", flush=True)
                        return 1
                    if not out["correct"]:
                        print(f"{side}: run failed its checks", flush=True)
                        ok = False
                    failed[side][0] += out["failed"]
                    failed[side][1] += out["attempted"]
                    for m in metrics:
                        values[side][m["name"]].append(
                            out["metrics"][m["name"]]["value"]
                        )
                print(f"seed {seed} pair {i + 1:>2} ({order[0]} first): " + "  ".join(
                    f"{m['name']} {values['parent'][m['name']][-1]:.6g} -> "
                    f"{values['change'][m['name']][-1]:.6g}" for m in metrics
                ), flush=True)
            print(f"{args.workload} seed {seed}, {args.n} pairs of "
                  f"{args.seconds:g} s vs {args.parent}:")
            for m in metrics:
                print(report(m, values["parent"][m["name"]],
                             values["change"][m["name"]]))
            print("  failed/attempted  " + "  ".join(
                f"{side} {f}/{a}" for side, (f, a) in failed.items()
            ), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
