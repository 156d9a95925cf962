"""Every arrival a run sees is drawn and fed here.

:class:`SegmentSampler` draws destinations over a spec's segments; the
spec's Poisson stream (:func:`iter_arrivals`) and the live AIMD client
both draw through it.  :func:`empirical_arrivals` is the Poisson stream
of trace-derived demand.  :class:`WorkloadDriver` is the one feeder: a
spec's stream, a shard's pre-generated slice, a recorded trace's events
or any other time-ordered rows, each with exactly one pending arrival
event, so multi-million-query runs never materialise their arrivals.

Each stream's RNG is private, so *when* an item is drawn never matters.
"""

from __future__ import annotations

import bisect
import random
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List
from typing import Mapping, Optional, Tuple, Union

from repro.sim.rng import ZipfSampler, exponential
from repro.workload.streams import StreamSegment, WorkloadSpec

if TYPE_CHECKING:
    from repro.cluster.system import System

#: ``(time, src_server, dest_node)``, plus a global query id on a shard
Row = Union[Tuple[float, int, int], Tuple[float, int, int, int]]


class SegmentSampler:
    """Destinations over a :class:`WorkloadSpec`'s segments.

    Owns the rank-to-node permutation, redraws it at every boundary
    flagged ``reshuffle`` (an instantaneous random popularity change)
    and holds one Zipf sampler per distinct alpha.  Past the final
    boundary the last segment keeps applying (a live capacity run
    outlives its nominal spec duration by design).

    Every sampler the spec needs is built here, before the first draw:
    a million-node CDF takes ~0.2 s, which on the live event loop would
    stall every lookup in flight.  Building draws nothing from ``rng``.
    """

    __slots__ = ("spec", "rng", "perm", "_samplers", "_boundaries", "_idx")

    def __init__(
        self, spec: WorkloadSpec, n_nodes: int, rng: random.Random
    ) -> None:
        self.spec = spec
        self.rng = rng
        self.perm: List[int] = list(range(n_nodes))
        rng.shuffle(self.perm)
        self._samplers: Dict[float, ZipfSampler] = {
            alpha: ZipfSampler(n_nodes, alpha)
            for alpha in sorted({seg.alpha for seg in spec.segments})
            if alpha != 0.0
        }
        self._boundaries = spec.boundaries()
        self._idx = 0

    def segment_at(self, rel_t: float) -> StreamSegment:
        """The segment at time-offset ``rel_t``; reshuffles at the
        flagged boundaries crossed on the way."""
        idx = self._idx
        last = len(self.spec.segments) - 1
        while idx < last and rel_t >= self._boundaries[idx]:
            idx += 1
            if self.spec.segments[idx].reshuffle:
                self.rng.shuffle(self.perm)
        self._idx = idx
        return self.spec.segments[idx]

    def draw(self, seg: StreamSegment) -> int:
        """A destination node under ``seg``'s popularity."""
        if seg.alpha == 0.0:
            return self.rng.randrange(len(self.perm))
        return self.perm[self._samplers[seg.alpha].sample(self.rng)]

    def dest(self, rel_t: float) -> int:
        """A destination node for time-offset ``rel_t``."""
        return self.draw(self.segment_at(rel_t))


def iter_arrivals(
    spec: WorkloadSpec, n_nodes: int, n_servers: int, t0: float = 0.0
) -> Iterator[Tuple[float, int, int]]:
    """Yield the ``(time, src_server, dest_node)`` arrival stream of
    ``spec`` started at ``t0``, in time order, up to the spec's end.

    The serial :class:`WorkloadDriver` pulls one item per arrival
    event.  Sharded runs cannot generate arrivals lazily inside one
    shard -- the stream's RNG is global (one Poisson process, one
    popularity permutation) while injection points are scattered
    across shards -- so the coordinator materialises the stream,
    assigns query ids in global arrival order, and partitions by the
    source server's shard.

    Draw order is part of every fixed-seed fingerprint (initial
    shuffle, first gap, then per arrival: reshuffles at the segment
    boundaries crossed, source, destination, next gap); golden rows in
    ``tests/test_workload.py`` pin it.
    """
    rng = random.Random(spec.seed ^ 0xA11CE5)
    sampler = SegmentSampler(spec, n_nodes, rng)
    end_time = t0 + spec.duration
    now = t0 + exponential(
        rng, 1.0 / (spec.rate * spec.segments[0].rate_mult)
    )
    while now < end_time:
        seg = sampler.segment_at(now - t0)
        src = rng.randrange(n_servers)
        yield now, src, sampler.draw(seg)
        now += exponential(rng, 1.0 / (spec.rate * seg.rate_mult))


def empirical_arrivals(
    rate: float, duration: float, weights: Mapping[int, float],
    n_servers: int, seed: int = 0,
) -> Iterator[Tuple[float, int, int]]:
    """Yield Poisson ``(time, src_server, dest_node)`` arrivals over
    ``[0, duration)`` whose destinations follow per-node ``weights``.

    Unlisted nodes and zero weights are never queried, matching
    trace-driven demand; sources stay uniform, as in the paper.  Draw
    order: first gap, then per arrival source, destination, next gap.
    Arguments are checked on the first draw.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    positive = [(n, w) for n, w in sorted(weights.items()) if w > 0]
    if not positive:
        raise ValueError("need at least one positive weight")
    nodes = [n for n, _ in positive]
    cum = list(accumulate(float(w) for _, w in positive))
    rng = random.Random(seed ^ 0x7ABCE)
    now = exponential(rng, 1.0 / rate)
    while now < duration:
        src = rng.randrange(n_servers)
        u = rng.random() * cum[-1]
        yield now, src, nodes[bisect.bisect_left(cum, u)]
        now += exponential(rng, 1.0 / rate)


#: a driver's rows before :meth:`WorkloadDriver.start`
_NOT_STARTED: Iterator[Any] = iter(())


class WorkloadDriver:
    """Feeds one source of arrivals into a system.

    ``arrivals`` is a :class:`WorkloadSpec`, drawn by
    :func:`iter_arrivals` from :meth:`start` on, or time-ordered
    :data:`Row` tuples with absolute times: a trace's ``events``,
    :func:`empirical_arrivals`, a shard's
    :class:`~repro.sim.shardcodec.ArrivalBatch` (whose query ids
    :meth:`repro.cluster.system.ShardSystem.inject` takes).  After
    starting rows, run the system to a horizon of your own.
    """

    __slots__ = ("system", "spec", "_source", "_rows", "_end_time",
                 "n_generated")

    def __init__(
        self, system: System, arrivals: Union[WorkloadSpec, Iterable[Row]]
    ) -> None:
        self.system = system
        self.spec = arrivals if isinstance(arrivals, WorkloadSpec) else None
        self._source = arrivals
        self._rows: Iterator[Row] = _NOT_STARTED
        self._end_time = 0.0
        self.n_generated = 0

    def start(self, at: Optional[float] = None) -> None:
        """Begin feeding.  A spec's stream starts at simulated time
        ``at`` (default: now), and its segment boundaries are relative
        to that instant; rows carry their own times and take no ``at``.
        """
        if self._rows is not _NOT_STARTED:
            raise RuntimeError("driver already started")
        source = self._source
        if isinstance(source, WorkloadSpec):
            system = self.system
            now = system.engine.now
            t0 = now if at is None else max(at, now)
            self._end_time = t0 + source.duration
            self._rows = iter_arrivals(
                source, len(system.ns), len(system.peers), t0
            )
        elif at is not None:
            raise ValueError("rows carry their own times; pass no 'at'")
        else:
            self._rows = iter(source)
        self._schedule_next()

    def run(self, extra_time: float = 5.0) -> None:
        """Start a spec's stream now and run the system until it ends
        plus ``extra_time`` for in-flight queries to drain."""
        if self.spec is None:
            raise TypeError("rows have no end time: start() the driver "
                            "and run the system to your own horizon")
        if self._rows is _NOT_STARTED:
            self.start()
        self.system.run_until(self._end_time + extra_time)

    # ------------------------------------------------------------------

    def _schedule_next(self) -> None:
        """Exactly one pending arrival event, until the rows end."""
        row = next(self._rows, None)
        if row is not None:
            self.system.engine.schedule(row[0], self._arrival, *row[1:])

    def _arrival(self, *args: int) -> None:
        # inject first: the next arrival is scheduled after everything
        # this one schedules, which fixed-seed event order depends on
        self.system.inject(*args)
        self.n_generated += 1
        self._schedule_next()
