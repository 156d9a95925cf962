"""Fig. 8: stabilisation and long-term behaviour.

Long constant-distribution runs (``unif`` and ``cuzipf1.00`` with a
short uniform prefix) on both namespaces, plotting replicas created per
minute.  The paper's finding: under a constant request distribution the
replica-creation rate decays like an exponential toward quiescence --
the protocol stabilises rather than churning forever.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.series import minute_buckets, rate_series
from repro.experiments.campaign import Experiment
from repro.experiments.common import Scale, run_point
from repro.workload.streams import StreamSegment, WorkloadSpec, unif_stream


def fig8_stream(
    scale: Scale,
    suffix: str,
    spec: WorkloadSpec,
    total: float,
    seed: int,
) -> tuple:
    """One long-run stream of Fig. 8 -- picklable task unit."""
    system = run_point(scale, spec, namespace=suffix, seed=seed)
    per_second = rate_series(system, "replicas_created", n_bins=int(total) + 1)
    return spec.name, minute_buckets(per_second,
                                     seconds_per_bucket=scale.long_bucket)


def _long_cuzipf(rate: float, alpha: float, warmup: float, total: float,
                 seed: int, name: str) -> WorkloadSpec:
    """unif warm-up then ONE long Zipf phase (constant distribution)."""
    return WorkloadSpec(
        rate=rate,
        segments=(
            StreamSegment(warmup, alpha=0.0),
            StreamSegment(total - warmup, alpha=alpha, reshuffle=True),
        ),
        seed=seed,
        name=name,
    )


def fig8_grid(scale: Scale, seed: int, utilization: float = 0.35,
              alpha: float = 1.0):
    """One long run per (namespace, stream)."""
    rate = scale.rate(utilization)
    total = scale.long_run
    for suffix in ("S", "C"):
        for stream in (
            unif_stream(rate, total, seed=seed, name=f"unif{suffix}"),
            _long_cuzipf(rate, alpha, warmup=scale.warmup, total=total,
                         seed=seed, name=f"uzipf{suffix}{alpha:.2f}"),
        ):
            yield stream.name, dict(scale=scale, suffix=suffix, spec=stream,
                                    total=total, seed=seed)


def decay_ratio(buckets: List[float]) -> float:
    """Late-to-early replica-creation ratio (quiescence indicator).

    Compares the mean of the last quarter of buckets to the first
    quarter; a stabilising protocol drives this well below 1.
    """
    if len(buckets) < 4:
        raise ValueError("need at least 4 buckets")
    q = max(1, len(buckets) // 4)
    early = sum(buckets[:q]) / q
    late = sum(buckets[-q:]) / q
    return late / early if early > 0 else 0.0


def render_fig8(results: Dict[str, List[float]]) -> None:
    """The combined-report block (``python -m repro fig8``)."""
    for name, buckets in results.items():
        ratio = decay_ratio(buckets) if sum(buckets) else float("nan")
        print(f"  {name:>12} buckets={[round(b) for b in buckets]} "
              f"decay={ratio:.2f}")


EXPERIMENT = Experiment(
    name="fig8",
    title="stabilisation: replicas created per bucket over a long run",
    point=fig8_stream,
    grid=fig8_grid,
    render=render_fig8,
)
"""``{stream: replicas created per bucket}`` (paper: per minute);
streams ``unifS``, ``uzipfS1.00``, ``unifC``, ``uzipfC1.00``."""
