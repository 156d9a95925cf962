"""Query traces: recording, replay, and empirical namespaces from path
listings.

The paper's N_C experiments derive both the namespace and the demand
distribution from a real file-server trace.  This module provides that
pipeline for anyone holding such a trace -- and for reproducible
record/replay experiments:

* :class:`QueryTrace` -- a list of ``(time, src_server, dest_node)``
  events with text save/load that keeps every time bit for bit;
* :class:`TraceRecorder` -- taps a system's injection point;
* :func:`namespace_from_paths` -- build a namespace plus per-node
  access counts from ``[count] /path`` lines (``find``/accounting-log
  style).

Replay is ``WorkloadDriver(system, trace.events)``, into a system
configured alike or not, for A/B comparisons on *identical* query
sequences; demand that follows access counts is
:func:`repro.workload.arrivals.empirical_arrivals`.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from repro.cluster.system import System
from repro.namespace.name import validate_name
from repro.namespace.tree import Namespace, NamespaceBuilder

_time = itemgetter(0)


class QueryTrace:
    """A record of query injections, kept in time order: events given
    or appended out of order are sorted in by time (equal times keep the
    order they came in), so a replay never schedules into the past."""

    __slots__ = ("events",)

    def __init__(
        self, events: Optional[Iterable[Tuple[float, int, int]]] = None
    ) -> None:
        self.events: List[Tuple[float, int, int]] = sorted(
            events or (), key=_time
        )

    def __len__(self) -> int:
        return len(self.events)

    def append(self, t: float, src: int, dest: int) -> None:
        events = self.events
        events.append((t, src, dest))
        if len(events) > 1 and t < events[-2][0]:
            events.sort(key=_time)

    @property
    def duration(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    def save(self, fh: TextIO) -> None:
        """Write as ``time src dest`` lines; times as exact float reprs,
        so :meth:`load` gives back the very events a run recorded."""
        for t, src, dest in self.events:
            fh.write(f"{t!r} {src} {dest}\n")

    @classmethod
    def load(cls, fh: TextIO) -> "QueryTrace":
        """Read ``time src dest`` lines (``#`` comments skipped), sorted
        by time (equal times in file order); a ValueError names the first
        line whose time is not finite and >= 0 or whose ids are not
        integers >= 0."""
        events: List[Tuple[float, int, int]] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                t, src, dest = float(parts[0]), int(parts[1]), int(parts[2])
                ok = (len(parts) == 3 and 0.0 <= t < math.inf
                      and src >= 0 and dest >= 0)
            except (ValueError, IndexError):
                ok = False
            if not ok:
                raise ValueError(
                    f"line {lineno}: expected 'time src dest' with a "
                    f"finite time >= 0 and ids >= 0, got {line!r}"
                )
            events.append((t, src, dest))
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


# ---------------------------------------------------------------------------
# empirical namespaces from path listings
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
