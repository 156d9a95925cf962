"""Drives a :class:`~repro.workload.streams.WorkloadSpec` into a system.

:func:`iter_arrivals` is the one arrival stream: a Poisson process over
the spec's segments that owns the rank-to-node permutation, redraws it
at segment boundaries flagged ``reshuffle`` (instantaneous random
popularity change) and caches Zipf samplers per distinct alpha.  Its
RNG is private, so *when* an item is drawn never matters.

:class:`WorkloadDriver` consumes it lazily -- each arrival event
schedules the next one -- so multi-million-query runs never materialise
their arrival list; sharded runs materialise and partition it instead.

Segment boundaries are anchored at the stream's start time, so a
workload can begin at any point of an already-running simulation.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Optional, Tuple

from repro.cluster.system import System
from repro.sim.rng import ZipfSampler, exponential
from repro.workload.streams import WorkloadSpec


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
    perm = list(range(n_nodes))
    rng.shuffle(perm)
    samplers: Dict[float, ZipfSampler] = {}
    boundaries = spec.boundaries()
    end_time = t0 + boundaries[-1]
    segment_idx = 0
    now = t0 + exponential(
        rng, 1.0 / (spec.rate * spec.segments[0].rate_mult)
    )
    while now < end_time:
        rel = now - t0
        while rel >= boundaries[segment_idx]:
            segment_idx += 1
            if spec.segments[segment_idx].reshuffle:
                rng.shuffle(perm)
        seg = spec.segments[segment_idx]
        src = rng.randrange(n_servers)
        if seg.alpha == 0.0:
            dest = rng.randrange(n_nodes)
        else:
            sampler = samplers.get(seg.alpha)
            if sampler is None:
                sampler = ZipfSampler(n_nodes, seg.alpha)
                samplers[seg.alpha] = sampler
            dest = perm[sampler.sample(rng)]
        yield now, src, dest
        now += exponential(rng, 1.0 / (spec.rate * seg.rate_mult))


class WorkloadDriver:
    """Schedules the arrivals of one workload spec into a system."""

    __slots__ = ("system", "spec", "_stream", "_end_time", "n_generated")

    def __init__(self, system: System, spec: WorkloadSpec) -> None:
        self.system = system
        self.spec = spec
        self._stream: Optional[Iterator[Tuple[float, int, int]]] = None
        self._end_time = spec.boundaries()[-1]
        self.n_generated = 0

    # ------------------------------------------------------------------

    def start(self, at: Optional[float] = None) -> None:
        """Begin generating arrivals at simulated time ``at``.

        Defaults to the engine's current time; segment boundaries are
        relative to this instant.
        """
        if self._stream is not None:
            raise RuntimeError("driver already started")
        system = self.system
        now = system.engine.now
        t0 = now if at is None else max(at, now)
        self._end_time = t0 + self.spec.boundaries()[-1]
        self._stream = iter_arrivals(
            self.spec, len(system.ns), len(system.peers), t0
        )
        self._schedule_next()

    @property
    def end_time(self) -> float:
        """Absolute simulation time of the last possible arrival."""
        return self._end_time

    def run(self, extra_time: float = 5.0) -> None:
        """Convenience: start now and run the system until the stream
        ends plus ``extra_time`` for in-flight queries to drain."""
        if self._stream is None:
            self.start()
        self.system.run_until(self._end_time + extra_time)

    # ------------------------------------------------------------------

    def _schedule_next(self) -> None:
        """Exactly one pending arrival event, until the stream ends."""
        item = next(self._stream, None)
        if item is not None:
            t, src, dest = item
            self.system.engine.schedule(t, self._arrival, src, dest)

    def _arrival(self, src: int, dest: int) -> None:
        # inject first: the next arrival is scheduled after everything
        # this one schedules, which fixed-seed event order depends on
        self.system.inject(src, dest)
        self.n_generated += 1
        self._schedule_next()
