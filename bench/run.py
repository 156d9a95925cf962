#!/usr/bin/env python3
"""The repo benchmark: ``python3 bench/run.py``.

Two ways in:

``python3 bench/run.py [--seed S] [--seconds N] [--repeat N] [--trace]
[--json FILE] [--smoke]``
    runs every workload of ``BENCHMARK.json``, each in a fresh child
    process, prints each metric by name with its unit, and exits
    non-zero if any output check failed.

``python3 bench/run.py --workload W --seed S --seconds N --trace 0|1``
    is one such child, and the form the PR driver calls: one workload,
    measured for ``N`` seconds, one JSON object on the last line of
    standard output.  ``--trace 0`` measures the end-to-end metrics
    with no wrapper installed; ``--trace 1`` is the diagnostic run that
    yields the per-layer metrics (:mod:`tracer`).

``--repin`` prints fresh serial-engine fingerprints for
``workloads.PINS``.  See ``bench/README.md`` for every name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
LIVE = "live_uniform"


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    speed = HostSpeed()
    speed.slowdown(25)
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # and with it the program, ``repro``
    import_s = (perf_counter() - t0) / speed.slowdown(25)

    runs: Any = measure
    if args.trace:
        import diagnose

        runs = diagnose
    if args.workload == LIVE:
        result = runs.run_live(args.seed, args.seconds, args.smoke, speed)
    else:
        result = runs.run_sim(
            args.workload, args.seed, args.seconds, args.smoke, speed
        )
    _stop_resource_tracker()
    if not args.trace:
        # set-up as a user pays it: importing the program comes first
        result.values["setup_s"] += import_s

    declared = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(result.values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"bench: undeclared metrics {sorted(unknown)}")
    metrics = {
        m["name"]: {
            "value": float(result.values.get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in declared
    }
    correct = not result.errors
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for note in result.notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:<48}{m['value']:>16.6g} {m['unit']}")
    for why in result.errors:
        print(f"CHECK FAILED: {why}")
    print(json.dumps({
        "correct": correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """``multiprocessing`` starts a helper process for the shared-memory
    arenas and leaves it to die with its parent; end it here, and wait,
    so that nothing this run started is still alive when it returns."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_child(name: str, seed: int, seconds: float, trace: int,
              smoke: bool = False) -> Dict[str, Any]:
    """One workload run in a fresh process: its result object, with the
    text it printed above the result under ``"text"``; ``"correct"`` is
    False when the child printed no result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        out = json.loads(lines[-1])
        text = lines[:-1]
    except (IndexError, ValueError):
        out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        text = lines + [f"{name}: no result (exit code {proc.returncode})"]
    out["correct"] = out["correct"] and proc.returncode == 0
    return {"workload": name, "seed": seed, "text": "\n".join(text), **out}


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, each run in a child process of its own."""
    names = [w["name"] for w in spec["workloads"]]
    runs: List[Dict[str, Any]] = []
    for name in names:
        for _ in range(args.repeat):
            out = run_child(name, args.seed, args.seconds, args.trace,
                            args.smoke)
            if args.trace or not out["correct"]:
                print(out["text"])
            runs.append(out)
    ok = all(r["correct"] for r in runs)
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"\n{'metric':<48}" + "".join(f"{n:>16}" for n in names))
    for m in spec[kind]:
        cells = []
        for name in names:
            got = [r["metrics"][m["name"]]["value"] for r in runs
                   if r["workload"] == name and r["metrics"]]
            cells.append(f"{statistics.median(got):>16.6g}" if got
                         else f"{'-':>16}")
        print(f"{m['name'] + ' [' + m['unit'] + ']':<48}" + "".join(cells))
    print("checks: " + ("all outputs correct" if ok else "FAILED"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


def repin() -> int:
    """Print ``workloads.PINS`` afresh from the serial engine."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    speed = HostSpeed()
    print("PINS: Dict[tuple, str] = {")
    for name, seed in workloads.PINS:
        unit = workloads.serial_unit(workloads.sim_inputs(name, seed), speed)
        print(f'    ("{name}", {seed}):\n        "{unit.fingerprint}",')
    print("}")
    return 0


def parse_args(argv: Optional[Sequence[str]],
               spec: Dict[str, Any]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="run this workload here (default: all, each in "
                         "a child process)")
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (default 1; 2 is the hold-out)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds one run measures (default: run_seconds "
                         "of BENCHMARK.json; 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, default=0,
                    help="1: the traced, per-layer run")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload; medians are printed")
    ap.add_argument("--json", metavar="FILE",
                    help="also write every run's result here")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: checks the harness, measures nothing")
    ap.add_argument("--repin", action="store_true",
                    help="print fresh fingerprint pins and exit")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.repin:
        return repin()
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
