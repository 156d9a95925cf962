#!/usr/bin/env python
"""Trace-driven workloads and record/replay A/B experiments.

Demonstrates the empirical pipeline the paper used with its Coda trace:

1. build a namespace + access counts from a ``[count] /path`` listing,
2. drive lookups whose popularity follows the empirical counts,
3. record the exact query sequence and save it as text,
4. load it back and replay it against a differently configured system
   (replication disabled) for a controlled comparison on identical
   input.

    python examples/trace_replay.py
"""

import io
import random

from repro import SystemConfig, build_system
from repro.workload.arrivals import WorkloadDriver, empirical_arrivals
from repro.workload.trace import QueryTrace, TraceRecorder, namespace_from_paths


def synthetic_listing(n_files: int = 900, seed: int = 7) -> str:
    """A fake file-server accounting log: 'count /path' lines."""
    rng = random.Random(seed)
    lines = []
    for i in range(n_files):
        depth = rng.randint(2, 5)
        parts = [f"d{rng.randint(0, 4)}" for _ in range(depth - 1)]
        path = "/" + "/".join(parts + [f"file{i}"])
        count = int(rng.paretovariate(1.2))  # heavy-tailed popularity
        lines.append(f"{count} {path}")
    return "\n".join(lines)


def main() -> None:
    ns, counts = namespace_from_paths(io.StringIO(synthetic_listing()))
    print(f"namespace from listing: {len(ns)} nodes "
          f"({ns.n_leaves} files, depth {ns.max_depth}); "
          f"{len(counts)} nodes with access counts")

    def fresh(replication: bool):
        maker = (SystemConfig.replicated if replication
                 else SystemConfig.caching)
        cfg = maker(n_servers=16, seed=5, cache_slots=10,
                    digest_probe_limit=1)
        return build_system(ns, cfg)

    # record a trace-driven run on the full system
    system = fresh(replication=True)
    recorder = TraceRecorder(system)
    rate = 0.4 * 16 / (0.005 * 3.5)
    WorkloadDriver(system, empirical_arrivals(
        rate, 15.0, dict(counts), len(system.peers), seed=11)).start()
    system.run_until(20.0)
    trace = recorder.trace
    print(f"\nrecorded {len(trace)} queries over {trace.duration:.1f} s")
    print(f"  with replication:    drop "
          f"{100 * system.stats.drop_fraction:.2f}%  "
          f"mean hops {system.stats.mean_hops:.2f}  "
          f"replicas {system.stats.n_replicas_created}")

    # a saved trace loads back bit for bit (times are exact reprs)
    saved = io.StringIO()
    trace.save(saved)
    saved.seek(0)
    loaded = QueryTrace.load(saved)
    assert loaded.events == trace.events
    print(f"  saved as {len(saved.getvalue())} bytes of text; "
          f"loaded back {len(loaded)} identical events")

    # replay the *identical* sequence without replication
    other = fresh(replication=False)
    WorkloadDriver(other, loaded.events).start()
    other.run_until(trace.duration + 5.0)
    print(f"  replayed, no repl.:  drop "
          f"{100 * other.stats.drop_fraction:.2f}%  "
          f"mean hops {other.stats.mean_hops:.2f}")
    print("\nSame queries, same arrival times -- the only variable is the"
          "\nreplication protocol. That is what record/replay is for.")


if __name__ == "__main__":
    main()
