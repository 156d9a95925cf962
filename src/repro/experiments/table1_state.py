"""Table 1: audit a live system against the server-node state matrix.

After driving a workload (so caches fill and replicas exist), every
peer is audited: each node it has any state for is classified (owned /
replicated / neighboring / cached) and the maintained state columns are
checked against the paper's Table 1.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.campaign import Experiment, only
from repro.experiments.common import Scale, run_point
from repro.server.state import Relationship, audit_peer
from repro.workload.streams import cuzipf_stream


def table1_audit(
    scale: Scale, utilization: float, seed: int
) -> Dict[str, int]:
    """Drive a workload, then audit every peer -- picklable task unit.

    Raises:
        AssertionError: if any peer maintains state deviating from
            Table 1 (too much or missing mandatory columns).
    """
    spec = cuzipf_stream(
        scale.rate(utilization), 1.0, warmup=scale.warmup,
        phase=scale.phase, n_phases=2, seed=seed,
    )
    system = run_point(scale, spec, seed=seed)
    totals: Dict[Relationship, int] = {r: 0 for r in Relationship}
    for peer in system.peers:
        for rel, count in audit_peer(peer).items():
            totals[rel] += count
    return {rel.value: count for rel, count in totals.items()}


def table1_grid(scale: Scale, seed: int, utilization: float = 0.4):
    """A single audit run."""
    yield "audit", dict(scale=scale, utilization=utilization, seed=seed)


def render_table1(counts: Dict[str, int]) -> None:
    """The combined-report block (``python -m repro table1``)."""
    for rel, count in counts.items():
        print(f"  {rel:>12}: {count}")


EXPERIMENT = Experiment(
    name="table1",
    title="audit live server state against the Table 1 matrix",
    point=table1_audit,
    grid=table1_grid,
    render=render_table1,
    assemble=only,
)
"""``{relationship: node count over all peers}``; the audit raises
``AssertionError`` on any peer deviating from Table 1."""
