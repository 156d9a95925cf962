"""Run summaries."""

from __future__ import annotations

from typing import Dict

from repro.cluster.system import System


def run_summary(system: System) -> Dict[str, float]:
    """Headline aggregates plus protocol-health indicators."""
    s = system.stats.summary()
    forwards = sum(system.stats.route_sources.values())
    s["forwards"] = float(forwards)
    s["stale_hop_rate"] = (
        system.stats.n_stale_hops / forwards if forwards else 0.0
    )
    s["control_messages"] = float(system.transport.n_control_sent)
    s["query_messages"] = float(system.transport.n_sent)
    s["control_to_query_ratio"] = (
        system.transport.n_control_sent / system.transport.n_sent
        if system.transport.n_sent
        else 0.0
    )
    s["replicas_live"] = float(system.total_replicas())
    s["utilization_mean"] = _mean_utilization(system)
    s["latency_p50"] = system.stats.latency.percentile(0.50)
    s["latency_p95"] = system.stats.latency.percentile(0.95)
    return s


def _mean_utilization(system: System) -> float:
    means = system.stats.loads.means()
    return sum(means) / len(means) if means else 0.0
