"""The live runtime: the protocol trio over an asyncio event loop.

This module is a sanctioned *wall-clock chokepoint* (detlint DET001):
live mode genuinely runs in real time, and every wall-clock read in
the codebase funnels through here.  ``rt.now`` is the loop's monotonic
clock zeroed at runtime construction, so protocol timestamps are small
non-negative floats directly comparable to simulated seconds (latency
arithmetic, load windows, and idle timeouts all behave identically).

Scheduling keeps the simulator :class:`~repro.sim.engine.Engine`'s
entries, ``(at, seq, handle, fn, args)`` tuples, on a heap of the
runtime's own, where they compare in C and ties fire in scheduling
order, as on the engine.  asyncio holds one timer for the whole heap,
armed for its earliest entry; that timer's callback runs every entry
due by the loop's clock in ``(at, seq)`` order, reports a callback's
exception to the loop's exception handler and goes on with the next,
and re-arms for the new earliest entry however the batch ended (an
exit or an interrupt propagates, after the re-arm).  A
``handle=True`` entry carries a lazily cancelled
:class:`~repro.sim.engine.EventHandle`.  An entry scheduled earlier
than the armed one from outside a batch re-arms the timer; asyncio
drops the superseded, cancelled timer when it reaches its heap's head.

``timer_after`` arms the runtime's :class:`~repro.sim.timerwheel
.TimerWheel` -- the simulator's wheel, unchanged, over this runtime's
clock and ``schedule``.  A lookup deadline is armed and cancelled
within milliseconds almost every time; on the wheel that cancel is a
dict pop, and the heap holds one entry per non-empty bucket instead
of one lazily cancelled entry per lookup.

Determinism caveat (see DESIGN.md section 14): under AsyncRuntime the
*interleaving* of peers is whatever the loop and the kernel produce --
two live runs are not bit-identical.  What stays deterministic is each
peer's sequential behaviour given its inbound message order; the
sim-vs-live conformance suite exploits this by driving strictly
sequential traffic.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.base import Wire
from repro.sim.engine import EventHandle
from repro.sim.timerwheel import TimerHandle, TimerWheel

__all__ = ["AsyncRuntime"]

_NEVER = float("inf")


class AsyncRuntime:
    """Bind the :mod:`repro.runtime.base` trio to an event loop.

    Build it inside a running loop, or hand it one: ``loop=None`` is
    ``asyncio.get_running_loop()`` and raises its ``RuntimeError`` when
    none runs.

    The wire is attached after construction (``rt.wire = ...``): the
    transport needs the runtime's loop to spawn connector tasks, so
    the two reference each other and the runtime is built first.
    ``timers`` is the runtime's own timer wheel (one-second ticks).
    """

    __slots__ = ("loop", "wire", "timers", "_t0", "_heap", "_seq",
                 "_timer", "_armed_at", "_firing")

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        wire: Optional[Wire] = None,
    ) -> None:
        # no loop given: the one running this call.  Outside a running
        # loop that is get_running_loop()'s RuntimeError -- there is no
        # default loop to fall back on (get_event_loop() warns on 3.12
        # and raises on 3.14 when none runs)
        self.loop = loop if loop is not None else asyncio.get_running_loop()
        self.wire = wire
        self._t0 = self.loop.time()
        self._heap: List[
            Tuple[float, int, Optional[EventHandle], Callable[..., None], tuple]
        ] = []
        self._seq = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_at = _NEVER  # the entry time the loop timer is for
        self._firing = False  # inside _fire: it re-arms when it ends
        self.timers = TimerWheel(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since runtime construction (monotonic)."""
        return self.loop.time() - self._t0

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def schedule(
        self, at: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[EventHandle]:
        h = EventHandle() if handle else None
        self._seq += 1
        heappush(self._heap, (at, self._seq, h, fn, args))
        if at < self._armed_at and not self._firing:
            self._arm(at)
        return h

    def schedule_after(
        self, delay: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[EventHandle]:
        # schedule()'s body over the clock: a call through schedule()
        # would count twice where the benchmark counts scheduler calls
        at = self.loop.time() - self._t0
        if delay > 0.0:
            at += delay
        h = EventHandle() if handle else None
        self._seq += 1
        heappush(self._heap, (at, self._seq, h, fn, args))
        if at < self._armed_at and not self._firing:
            self._arm(at)
        return h

    def timer_after(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self.timers.schedule_after(
            delay if delay > 0.0 else 0.0, fn, *args
        )

    def _arm(self, at: float) -> None:
        """Point the one loop timer at entry time ``at``."""
        if self._timer is not None:
            self._timer.cancel()
        self._armed_at = at
        self._timer = self.loop.call_at(self._t0 + at, self._fire)

    def _fire(self) -> None:
        """Run every entry due by the loop's clock, then re-arm."""
        loop = self.loop
        heap = self._heap
        # asyncio may run a timer up to its clock resolution early: the
        # entry it was armed for is due whatever the clock reads
        due = max(loop.time() - self._t0, self._armed_at)
        self._timer = None
        self._firing = True
        try:
            while heap and heap[0][0] <= due:
                _, _, h, fn, args = heappop(heap)
                if h is not None and h.cancelled:
                    continue
                try:
                    fn(*args)
                except Exception as exc:
                    loop.call_exception_handler({
                        "message": f"Exception in callback {fn!r}{args!r}",
                        "exception": exc,
                    })
        finally:
            self._firing = False
            self._armed_at = _NEVER
            if heap:
                self._arm(heap[0][0])

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------

    def send(self, dest: int, msg: Any) -> None:
        wire = self.wire
        if wire is None:
            raise RuntimeError("AsyncRuntime has no wire attached")
        wire.send(dest, msg)

    def __repr__(self) -> str:
        return f"AsyncRuntime(t={self.now:.3f})"
