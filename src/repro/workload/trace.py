"""Query traces: recording, replay, and empirical workloads from path
listings.

The paper's N_C experiments derive both the namespace and the demand
distribution from a real file-server trace.  This module provides that
pipeline for anyone holding such a trace -- and for reproducible
record/replay experiments:

* :class:`QueryTrace` -- a list of ``(time, src_server, dest_node)``
  events with text save/load;
* :class:`TraceRecorder` -- taps a system's injection point;
* :func:`replay_trace` -- schedules a recorded trace into a (possibly
  differently configured) system, enabling A/B comparisons on
  *identical* query sequences;
* :func:`namespace_from_paths` -- build a namespace plus per-node
  access counts from ``[count] /path`` lines (``find``/accounting-log
  style);
* :class:`EmpiricalWorkloadDriver` -- Poisson arrivals whose
  destinations follow empirical per-node weights.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from repro.cluster.system import System
from repro.namespace.name import validate_name
from repro.namespace.tree import Namespace, NamespaceBuilder
from repro.sim.rng import exponential


class QueryTrace:
    """An ordered record of query injections."""

    __slots__ = ("events",)

    def __init__(
        self, events: Optional[List[Tuple[float, int, int]]] = None
    ) -> None:
        self.events: List[Tuple[float, int, int]] = (
            events if events is not None else []
        )

    def __len__(self) -> int:
        return len(self.events)

    def append(self, t: float, src: int, dest: int) -> None:
        self.events.append((t, src, dest))

    @property
    def duration(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    def save(self, fh: TextIO) -> None:
        """Write as ``time src dest`` lines."""
        for t, src, dest in self.events:
            fh.write(f"{t:.9f} {src} {dest}\n")

    @classmethod
    def load(cls, fh: TextIO) -> "QueryTrace":
        events: List[Tuple[float, int, int]] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'time src dest'")
            events.append((float(parts[0]), int(parts[1]), int(parts[2])))
        events.sort()
        return cls(events)

    def scaled(self, time_factor: float = 1.0) -> "QueryTrace":
        """A copy with all timestamps multiplied (speed up / slow down)."""
        if time_factor <= 0:
            raise ValueError("time_factor must be > 0")
        return QueryTrace(
            [(t * time_factor, s, d) for t, s, d in self.events]
        )


class TraceRecorder:
    """Record every injection into a system.

    >>> recorder = TraceRecorder(system)      # doctest: +SKIP
    >>> trace = recorder.trace                # doctest: +SKIP
    """

    def __init__(self, system: System) -> None:
        if system.on_inject is not None:
            raise RuntimeError("system already has an injection tap")
        self.trace = QueryTrace()
        system.on_inject = self.trace.append


def replay_trace(
    system: System, trace: QueryTrace, start_at: float = 0.0
) -> None:
    """Schedule every trace event into ``system`` (relative to
    ``start_at``); call ``system.run_until`` afterwards to execute."""
    engine = system.engine
    inject = system.inject
    for t, src, dest in trace.events:
        engine.schedule(start_at + t, inject, src, dest)


# ---------------------------------------------------------------------------
# empirical namespaces and workloads from path listings
# ---------------------------------------------------------------------------


def namespace_from_paths(
    lines: Iterable[str],
) -> Tuple[Namespace, Dict[int, int]]:
    """Build a namespace and per-node access counts from text lines.

    Accepted line formats (blank lines and ``#`` comments skipped)::

        /a/b/c           # count 1
        17 /a/b/c        # explicit access count

    Ancestor directories are created implicitly (count 0 unless listed
    themselves).  This is exactly how the paper built N_C: "files
    accessed during this month together with their ancestors were
    included in this namespace."

    Returns:
        ``(namespace, {node_id: access_count})``.
    """
    builder = NamespaceBuilder()
    pending: List[Tuple[str, int]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) == 2 and not parts[0].startswith("/"):
            try:
                count = int(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad count {parts[0]!r}")
            name = parts[1].strip()
        else:
            count, name = 1, line
        validate_name(name)
        pending.append((name, count))
    counts_by_name: Dict[str, int] = {}
    for name, count in pending:
        builder.add_path(name)
        counts_by_name[name] = counts_by_name.get(name, 0) + count
    ns = builder.build()
    counts = {ns.id_of(name): c for name, c in counts_by_name.items()}
    return ns, counts


class EmpiricalWorkloadDriver:
    """Poisson arrivals with destinations drawn from empirical weights.

    Unlisted nodes get weight 0 (never queried), matching trace-driven
    demand.  Sources remain uniform over servers, as in the paper.
    """

    __slots__ = ("system", "rate", "duration", "_rng", "_nodes", "_cum",
                 "_end", "n_generated", "_started")

    def __init__(
        self,
        system: System,
        rate: float,
        duration: float,
        weights: Dict[int, float],
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if duration <= 0:
            raise ValueError("duration must be > 0")
        positive = [(n, w) for n, w in sorted(weights.items()) if w > 0]
        if not positive:
            raise ValueError("need at least one positive weight")
        self.system = system
        self.rate = rate
        self.duration = duration
        self._rng = random.Random(seed ^ 0x7ABCE)
        self._nodes = [n for n, _ in positive]
        cum: List[float] = []
        acc = 0.0
        for _, w in positive:
            acc += w
            cum.append(acc)
        self._cum = cum
        self._end = 0.0
        self.n_generated = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("driver already started")
        self._started = True
        now = self.system.engine.now
        self._end = now + self.duration
        self.system.engine.schedule(
            now + exponential(self._rng, 1.0 / self.rate), self._arrival
        )

    def run(self, extra_time: float = 5.0) -> None:
        if not self._started:
            self.start()
        self.system.run_until(self._end + extra_time)

    def _sample_dest(self) -> int:
        u = self._rng.random() * self._cum[-1]
        return self._nodes[bisect.bisect_left(self._cum, u)]

    def _arrival(self) -> None:
        now = self.system.engine.now
        if now >= self._end:
            return
        src = self._rng.randrange(len(self.system.peers))
        self.system.inject(src, self._sample_dest())
        self.n_generated += 1
        self.system.engine.schedule(
            now + exponential(self._rng, 1.0 / self.rate), self._arrival
        )
