"""Section 4.4 (text): digests vs. oracle under replica churn.

The paper runs low replication factors (0.125, 0.25, 0.5) against
repeated high-order hot-spot shifts (``cuzipf1.50``), forcing many
replica creations *and* deletions, and summarises: "inverse-mapping
digests are good approximations of optimal behavior (routing with
perfectly accurate information, as if given by an oracle) ... routing
accuracy is maintained within the optimal range."

We reproduce the comparison three-way: digests enabled, digests
disabled, and the oracle (ground-truth map filtering).  Routing
accuracy is measured as the stale-hop rate -- the fraction of forwards
landing on a server that no longer hosts the node it was selected for.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.summary import run_summary
from repro.experiments.campaign import Experiment, nested
from repro.experiments.common import Scale, run_point

RFACTS = (0.125, 0.25, 0.5)
MODES = ("digests", "no-digests", "oracle")


def churn_cell(scale, spec, rfact: float, mode: str, seed: int) -> tuple:
    """One (rfact, mode) run of the churn study -- picklable task unit."""
    overrides = dict(rfact=rfact)
    if mode == "no-digests":
        overrides["digests_enabled"] = False
    elif mode == "oracle":
        overrides["oracle_maps"] = True
    system = run_point(scale, spec, seed=seed, **overrides)
    return rfact, mode, run_summary(system)


def churn_grid(scale: Scale, seed: int, rfacts=RFACTS, modes=MODES,
               utilization: float = 0.4, alpha: float = 1.5):
    """One run per (rfact, mode), all on one cuzipf stream."""
    stream = scale.stream(scale.rate(utilization), alpha, seed)
    for rfact in rfacts:
        for mode in modes:
            yield f"rfact{rfact:g}:{mode}", dict(
                scale=scale, spec=stream, rfact=rfact, mode=mode, seed=seed,
            )


def render_churn(results: Dict[float, Dict[str, Dict[str, float]]]) -> None:
    """The combined-report block (``python -m repro churn``)."""
    print(f"  {'rfact':>7} " + " ".join(f"{m:>12}" for m in MODES)
          + "   (stale-hop rate)")
    for rfact, per_mode in results.items():
        row = " ".join(f"{per_mode[m]['stale_hop_rate']:12.4f}"
                       for m in MODES)
        print(f"  {rfact:>7} {row}")


EXPERIMENT = Experiment(
    name="churn",
    title="digests vs oracle routing accuracy under replica churn",
    point=churn_cell,
    grid=churn_grid,
    render=render_churn,
    assemble=nested,
)
"""``{rfact: {mode: run_summary}}``; each summary carries
``stale_hop_rate`` and ``drop_fraction``."""
