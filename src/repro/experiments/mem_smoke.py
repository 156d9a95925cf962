"""Million-node build smoke under an enforced RSS budget (``make mem``).

Builds the two 10^6-node namespaces (balanced N_S-shaped and the
file-system-shaped ``coda_like_tree``), reports build time, deep size,
and process peak RSS, and exits non-zero if the peak exceeds the
budget.  This is the guard for the arena refactor's headline claim:
a million-node namespace fits in laptop RAM (DESIGN.md section 11).

With ``--servers N`` it measures a *fleet point* instead: the balanced
namespace plus a full ``N``-server system at the million scale's knobs
-- namespace, peers, routing state and every peer's ancestor index
(DESIGN.md sections 11.4 and 11.7) --
reporting the build time per phase (``namespace_s`` + ``system_s`` =
``build_s``, DESIGN.md section 11.6) and the per-peer index size next
to the peak RSS the budget is enforced on.

The default budget is the documented 2 GB for namespace builds
(override with ``--budget-mb`` or ``REPRO_MEM_BUDGET_MB``).

Usage::

    python -m repro mem-smoke                 # 2 GB budget
    python -m repro mem-smoke --nodes 100000  # quicker CI variant
    python -m repro mem-smoke --budget-mb 512
    python -m repro mem-smoke --nodes 100000 --servers 256 --budget-mb 125
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from repro.experiments import common
from repro.namespace.generators import balanced_tree, coda_like_tree
from repro.sim.memsize import deep_sizeof, fmt_bytes, peak_rss_bytes

DEFAULT_BUDGET_MB = float(os.environ.get("REPRO_MEM_BUDGET_MB", "2048"))


def _levels_for(n_nodes: int) -> int:
    return max(1, (n_nodes + 1).bit_length() - 1)


def run_fleet(n_nodes: int, n_servers: int) -> Dict[str, Dict[str, float]]:
    """Build the balanced namespace and an ``n_servers`` system on it."""
    levels = _levels_for(n_nodes)
    t0 = time.perf_counter()
    ns = balanced_tree(levels=levels)
    t1 = time.perf_counter()
    system = common.build(ns, common.MILLION, n_servers=n_servers)
    t2 = time.perf_counter()
    # read before sizing: the walk below keeps a set of everything seen
    peak = peak_rss_bytes()
    seen: set = set()
    deep_sizeof(ns, seen)  # shared by every index, charged to none
    sizes = [deep_sizeof(peer.store.index, seen) for peer in system.peers]
    return {f"fleet_l{levels}_s{n_servers}": {
        "nodes": len(ns),
        "servers": n_servers,
        # the build budget per phase; build_s is their sum
        "namespace_s": round(t1 - t0, 3),
        "system_s": round(t2 - t1, 3),
        "build_s": round(t2 - t0, 3),
        "index_bytes_total": sum(sizes),
        "index_bytes_per_peer_mean": sum(sizes) // len(sizes),
        "index_bytes_per_peer_max": max(sizes),
        "peak_rss_bytes": peak,
    }}


def run_smoke(n_nodes: int = 10**6) -> Dict[str, Dict[str, float]]:
    """Build both namespace shapes at ``n_nodes``; return measurements."""
    levels = _levels_for(n_nodes)
    out: Dict[str, Dict[str, float]] = {}
    for name, build in (
        (f"balanced_l{levels}", lambda: balanced_tree(levels=levels)),
        (f"coda_{n_nodes}", lambda: coda_like_tree(n_nodes=n_nodes)),
    ):
        t0 = time.perf_counter()
        ns = build()
        build_s = time.perf_counter() - t0
        out[name] = {
            "nodes": len(ns),
            "build_s": round(build_s, 3),
            "deep_bytes": deep_sizeof(ns),
            "peak_rss_bytes": peak_rss_bytes(),
        }
        del ns
    return out


def main(argv: List[str]) -> int:
    n_nodes = 10**6
    n_servers = 0
    budget_mb = DEFAULT_BUDGET_MB
    args = list(argv)
    while args:
        a = args.pop(0)
        if a == "--nodes":
            n_nodes = int(args.pop(0))
        elif a == "--servers":
            n_servers = int(args.pop(0))
        elif a == "--budget-mb":
            budget_mb = float(args.pop(0))
        else:
            raise SystemExit(f"unknown argument {a!r} (expected "
                             "--nodes N / --servers N / --budget-mb MB)")
    results = run_fleet(n_nodes, n_servers) if n_servers else run_smoke(n_nodes)
    print(json.dumps(results, indent=1, sort_keys=True))
    peak = int(max(r["peak_rss_bytes"] for r in results.values()))
    budget = budget_mb * 1024 * 1024
    if peak == 0:
        print("warning: peak RSS unavailable on this platform; "
              "budget not enforced", file=sys.stderr)
        return 0
    if peak > budget:
        print(f"FAIL: peak RSS {fmt_bytes(peak)} exceeds the "
              f"{fmt_bytes(int(budget))} budget", file=sys.stderr)
        return 1
    print(f"ok: peak RSS {fmt_bytes(peak)} within the "
          f"{fmt_bytes(int(budget))} budget", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main(sys.argv[1:]))
