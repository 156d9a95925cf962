#!/usr/bin/env python3
"""A/A check: two interleaved sets of runs of the same code.

``python3 bench/aa.py [--runs N] [--seconds S] [--write]`` runs every
workload ``N`` times for set A and ``N`` times for set B, alternating
A and B and giving run *i* of both sets seed *i* -- the protocol the PR
driver follows.  For every end-to-end metric on every workload it
prints each set's median and quartiles, the spread (quartile distance
over median) against the metric's bound, and how much worse set B's
median is than set A's.  The benchmark is steady enough when every
spread stays below its bound (aim: a third of it) and no B median is
worse than its A median by more than the bound.

``--write`` appends the result, one traced run per workload included,
to the ledger ``bench/baseline.json``: commit, host, every metric.  The
ledger is append-only; a later entry never replaces an earlier one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import run

LEDGER = Path(__file__).resolve().parent / "baseline.json"


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def worse_by(metric: Dict[str, Any], a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: Any = None) -> int:
    spec = run.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload in each set (default 10)")
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]))
    ap.add_argument("--write", action="store_true",
                    help=f"append the result to {LEDGER.name}")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("quartiles need at least 2 runs")

    names = [w["name"] for w in spec["workloads"]]
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        s: {n: {m["name"]: [] for m in spec["end_to_end"]} for n in names}
        for s in "AB"
    }
    ok = True
    for name in names:
        for i in range(args.runs):
            for which in ("AB", "BA")[i % 2]:
                out = run.run_child(name, 1 + i, args.seconds, 0)
                if not out["correct"]:
                    print(out["text"])
                    ok = False
                    continue
                for metric, got in out["metrics"].items():
                    values[which][name][metric].append(got["value"])
                print(f"{name} set {which} seed {1 + i}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                ), flush=True)

    report: Dict[str, Any] = {}
    print(f"\n{'workload':<15}{'metric':<15}{'A median':>11}{'A spread':>10}"
          f"{'B median':>11}{'B spread':>10}{'B worse':>9}{'bound':>7}")
    for name in names:
        report[name] = {}
        for m in spec["end_to_end"]:
            a = summarize(values["A"][name][m["name"]])
            b = summarize(values["B"][name][m["name"]])
            shift = worse_by(m, a["median"], b["median"])
            steady = shift <= m["bound"] and (
                m["name"] == "setup_s"
                or max(a["spread"], b["spread"]) <= m["bound"]
            )
            ok = ok and steady
            report[name][m["name"]] = {"A": a, "B": b, "B_worse_by": shift}
            print(f"{name:<15}{m['name']:<15}{a['median']:>11.5g}"
                  f"{a['spread']:>10.3f}{b['median']:>11.5g}"
                  f"{b['spread']:>10.3f}{shift:>+9.3f}{m['bound']:>7.2f}"
                  f"{'' if steady else '  NOT STEADY'}")
    print("A/A: " + ("within every bound" if ok else "FAILED"))

    if args.write:
        layers = {}
        for name in names:
            out = run.run_child(name, 1, args.seconds, 1)
            ok = ok and out["correct"]
            layers[name] = {k: v["value"] for k, v in out["metrics"].items()}
        entry = {
            "commit": commit(),
            "date": time.strftime("%Y-%m-%d"),
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
            "run_seconds": args.seconds,
            "runs_per_set": args.runs,
            "claim": None,
            "end_to_end": report,
            "per_layer_seed_1": layers,
        }
        ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
        ledger.append(entry)
        LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"appended entry {len(ledger)} to {LEDGER}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
