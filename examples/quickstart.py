#!/usr/bin/env python
"""Quickstart: build a TerraDir deployment, run a skewed workload,
inspect the outcome.

Runs in a few seconds:

    python examples/quickstart.py
"""

from repro import (
    SystemConfig,
    WorkloadDriver,
    balanced_tree,
    build_system,
    cuzipf_stream,
)
from repro.analysis.summary import run_summary
from repro.experiments.report import format_summary, sparkline


def main() -> None:
    # a 2047-node hierarchical namespace on 32 servers
    ns = balanced_tree(levels=10)
    cfg = SystemConfig.replicated(
        n_servers=32, seed=7, cache_slots=12, digest_probe_limit=1
    )
    system = build_system(ns, cfg)

    # one lookup by name, end to end
    root_neighbourhood = ns.name_of(ns.children[0][0])
    print(f"looking up {root_neighbourhood!r} from server 5 ...")
    system.lookup_name(5, root_neighbourhood)
    system.run_until(1.0)
    print(f"  completed={system.stats.n_completed} "
          f"latency={system.stats.latency.mean * 1000:.1f} ms\n")

    # a Zipf(1.0) workload with two instantaneous hot-spot shifts
    rate = 0.4 * cfg.n_servers / (0.005 * 3.5)  # ~40% mean utilisation
    spec = cuzipf_stream(rate=rate, alpha=1.0, warmup=5, phase=5,
                         n_phases=2, seed=42)
    print(f"running {spec.name}: {rate:.0f} queries/s for "
          f"{spec.duration:.0f} s with hot-spot shifts at 5 s and 10 s ...")
    WorkloadDriver(system, spec).run()

    print(format_summary(run_summary(system), title="\nrun summary"))
    created = system.stats.replicas_created.totals(int(spec.duration) + 1)
    print(f"\nreplica creations/s: {sparkline(created)}")
    drops = system.stats.drops.totals(int(spec.duration) + 1)
    print(f"query drops/s:       {sparkline(drops)}")
    print(f"\nlive replicas: {system.total_replicas()} across "
          f"{sum(1 for p in system.peers if p.store.replicas)} servers")


if __name__ == "__main__":
    main()
