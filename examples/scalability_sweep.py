#!/usr/bin/env python
"""Mini scalability study (the paper's Fig. 9 at example size).

Doubles the server count across a sweep while holding utilisation and
nodes-per-server constant, and prints how latency, replication events,
and drops scale.

    python examples/scalability_sweep.py
"""


from repro.experiments.common import Scale
from repro.experiments.fig9_scalability import EXPERIMENT as FIG9

EXAMPLE = Scale(
    name="tiny", ns_levels=0, nc_nodes=0,  # unused by fig9
    n_servers=0, warmup=3.0, phase=3.0, drain=3.0,
    cache_slots=8, digest_probe_limit=1,
)


def main() -> None:
    results = FIG9.run(EXAMPLE, seed=4, duration=9.0)
    print(f"{'servers':>8} {'nodes':>7} {'rate/s':>8} {'hops':>6} "
          f"{'latency(ms)':>12} {'replications':>13} {'drops':>7}")
    for n, s in results.items():
        print(
            f"{n:>8} {s['nodes']:>7.0f} {s['rate']:>8.0f} "
            f"{s['mean_hops']:>6.2f} {s['mean_latency'] * 1000:>12.1f} "
            f"{s['replicas_created']:>13.0f} {s['dropped']:>7.0f}"
        )
    ns = list(results)
    lat = [results[n]["mean_latency"] for n in ns]
    print(
        "\nlatency grows by "
        f"{lat[-1] / lat[0]:.2f}x while the system grows "
        f"{ns[-1] // ns[0]}x -- logarithmic-ish, as the paper reports."
    )


if __name__ == "__main__":
    main()
