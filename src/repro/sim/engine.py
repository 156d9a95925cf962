"""Minimal, fast discrete-event engine.

Events are ``(time, seq, fn, args)`` tuples on a binary heap.  ``seq``
is a monotonically increasing tie-breaker so simultaneous events run in
scheduling order and callables are never compared.  The engine is
deliberately tiny -- scheduling overhead dominates a pure-Python
simulator, so there are no event objects, no cancellation tokens (use
the returned handle's ``cancelled`` flag), and no processes/coroutines.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple


class SimError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class ShardError(SimError):
    """A configuration or operation incompatible with sharded execution.

    Raised when the conservative windowed run loop cannot guarantee
    bit-identical results: jittered delivery times (no constant
    lookahead), zero network delay (zero-width windows), oracle map
    filtering (direct cross-shard state reads), or window-protocol
    violations (a message delivered into an already-executed window).
    """


class EventHandle:
    """Cancellation handle for a scheduled event (lazy deletion)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle({state})"


class Engine:
    """Priority-queue discrete-event simulator core.

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(1.0, hits.append, "a")
    >>> _ = eng.schedule(0.5, hits.append, "b")
    >>> eng.run()
    >>> hits
    ['b', 'a']
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "n_dispatched")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[
            Tuple[float, int, Optional[EventHandle], Callable[..., None], tuple]
        ] = []
        self._seq = 0
        self._running = False
        self.n_dispatched = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pending(self) -> int:
        """Number of events still on the heap (cancelled ones included)."""
        return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"Engine(now={self.now:.6f}, pending={len(self._heap)}, "
            f"dispatched={self.n_dispatched})"
        )

    def schedule(
        self, time: float, fn: Callable[..., None], *args: Any, handle: bool = False
    ) -> Optional[EventHandle]:
        """Schedule ``fn(*args)`` at absolute ``time``.

        Args:
            handle: when True return an :class:`EventHandle` that can
                cancel the event; plain events skip handle allocation.

        Raises:
            SimError: when ``time`` is before the current clock or NaN.
        """
        if not time >= self.now:  # NaN compares False both ways
            raise SimError(f"cannot schedule at {time} (now={self.now})")
        h = EventHandle() if handle else None
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, h, fn, args))
        return h

    def schedule_after(
        self, delay: float, fn: Callable[..., None], *args: Any, handle: bool = False
    ) -> Optional[EventHandle]:
        """Schedule ``fn(*args)`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn, *args, handle=handle)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None when the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: float = math.inf, max_events: int = 0) -> None:
        """Dispatch events in time order.

        Stops when the heap is empty, the next event is later than
        ``until`` (the clock is then advanced to exactly ``until``), or
        ``max_events`` events have been dispatched (0 = unlimited).
        """
        dispatched = self._dispatch(until, max_events)
        if self.now < until < math.inf and not (
            max_events and dispatched >= max_events
        ):
            self.now = until

    def run_window(self, end: float, inclusive: bool = False) -> None:
        """Dispatch one conservative time window, then land on ``end``.

        The windowed variant of :meth:`run` used by sharded execution
        (:mod:`repro.sim.shard`): dispatches events strictly *before*
        ``end`` (so an event scheduled exactly on a window boundary
        runs in the window it opens, in every shard alike), then
        advances the clock to exactly ``end`` so all shard clocks agree
        at the barrier.  The final window of a run passes
        ``inclusive=True``, which additionally dispatches events at
        exactly ``end`` -- matching ``run(until=end)``'s inclusive
        stopping rule, so a sharded run ends on the same events a
        serial run does.
        """
        if end < self.now:
            raise SimError(f"cannot run a window ending at {end} (now={self.now})")
        # the last float before ``end`` makes "strictly before" the
        # same one comparison per event as the inclusive stop
        self._dispatch(end if inclusive else math.nextafter(end, -math.inf))
        if self.now < end:
            self.now = end

    def _dispatch(self, last: float, max_events: int = 0) -> int:
        """The one dispatch loop: run events due at or before ``last``
        in ``(time, seq)`` order, at most ``max_events`` of them (0 =
        unlimited), and return how many ran."""
        if self._running:
            raise SimError("engine is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        try:
            while heap:
                t = heap[0][0]
                if t > last:
                    break
                _, _, h, fn, args = pop(heap)
                if h is not None and h.cancelled:
                    continue
                self.now = t
                fn(*args)
                dispatched += 1
                if max_events and dispatched >= max_events:
                    break
        finally:
            self._running = False
            self.n_dispatched += dispatched
        return dispatched

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self._heap.clear()
        self.now = 0.0
        self._seq = 0
        self.n_dispatched = 0
