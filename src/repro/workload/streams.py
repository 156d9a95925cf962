"""Query stream specifications (paper section 4.1).

Lookups are initiated uniformly at source servers; destinations are
chosen uniformly at random (``unif`` traces) or by the Zipf law of
popularity vs. ranking (``uzipf`` traces).  Node ranking is a random
permutation of the namespace; "instantaneous and random changes in node
popularity" redraw that permutation, which is how the paper models
shifting hot-spots.

A :class:`WorkloadSpec` is a concatenation of :class:`StreamSegment`\\ s,
e.g. the paper's ``cuzipf`` streams ``unif ++ uzipf ++ uzipf ++ ...``
with a popularity reshuffle at each uzipf segment boundary.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence


@dataclasses.dataclass(frozen=True)
class StreamSegment:
    """One homogeneous phase of a query stream.

    Attributes:
        duration: segment length in simulated seconds.
        alpha: Zipf order of destination popularity (0 = uniform).
        reshuffle: redraw the rank-to-node permutation when the segment
            starts (an instantaneous random popularity change).
        rate_mult: arrival-rate multiplier for this segment relative to
            the spec's global ``rate`` (a flash crowd is a segment with
            a skewed alpha *and* a surge in offered load).  The default
            ``1.0`` is exact in IEEE arithmetic (``x * 1.0 == x``), so
            specs that never set it draw bit-identical streams.
    """

    duration: float
    alpha: float = 0.0
    reshuffle: bool = False
    rate_mult: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.rate_mult <= 0:
            raise ValueError("rate_mult must be > 0")


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload: arrival rate plus a segment sequence.

    Attributes:
        rate: global mean Poisson query arrival rate (queries/second).
        segments: phases executed back to back.
        seed: workload RNG seed (sources, destinations, permutations).
        name: label used in reports.
    """

    rate: float
    segments: Sequence[StreamSegment]
    seed: int = 0
    name: str = "workload"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if not self.segments:
            raise ValueError("at least one segment required")

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def boundaries(self) -> List[float]:
        """Cumulative segment end times."""
        out: List[float] = []
        t = 0.0
        for s in self.segments:
            t += s.duration
            out.append(t)
        return out


def unif_stream(
    rate: float, duration: float, seed: int = 0, name: str = "unif"
) -> WorkloadSpec:
    """A pure uniform stream (the paper's ``unif`` traces)."""
    return WorkloadSpec(
        rate=rate,
        segments=(StreamSegment(duration, alpha=0.0),),
        seed=seed,
        name=name,
    )


def uzipf_stream(
    rate: float,
    duration: float,
    alpha: float,
    seed: int = 0,
    name: str = "",
) -> WorkloadSpec:
    """A pure Zipf(alpha) stream (the paper's ``uzipf`` traces)."""
    return WorkloadSpec(
        rate=rate,
        segments=(StreamSegment(duration, alpha=alpha, reshuffle=True),),
        seed=seed,
        name=name or f"uzipf{alpha:.2f}",
    )


def cuzipf_stream(
    rate: float,
    alpha: float,
    warmup: float,
    phase: float,
    n_phases: int = 4,
    seed: int = 0,
    name: str = "",
) -> WorkloadSpec:
    """The paper's composite ``cuzipf`` stream.

    A uniform warm-up lets a cold system compensate for hierarchical
    bottlenecks (replicate the top of the namespace) before locality
    effects start; then ``n_phases`` Zipf(alpha) phases follow, each
    beginning with an instantaneous random popularity change.

    Args:
        warmup: uniform prefix duration, seconds.
        phase: duration of each Zipf phase, seconds.
        n_phases: number of Zipf phases (paper uses 4).
    """
    if n_phases < 1:
        raise ValueError("n_phases must be >= 1")
    segments: List[StreamSegment] = [StreamSegment(warmup, alpha=0.0)]
    for _ in range(n_phases):
        segments.append(StreamSegment(phase, alpha=alpha, reshuffle=True))
    return WorkloadSpec(
        rate=rate,
        segments=tuple(segments),
        seed=seed,
        name=name or f"cuzipf{alpha:.2f}",
    )
