"""The live runtime: the protocol trio over an asyncio event loop.

This module is a sanctioned *wall-clock chokepoint* (detlint DET001):
live mode genuinely runs in real time, and every wall-clock read in
the codebase funnels through here.  ``rt.now`` is the loop's monotonic
clock zeroed at runtime construction, so protocol timestamps are small
non-negative floats directly comparable to simulated seconds (latency
arithmetic, load windows, and idle timeouts all behave identically).

Scheduling maps onto ``loop.call_at`` / ``loop.call_later``.
``timer_after`` arms the runtime's :class:`~repro.sim.timerwheel
.TimerWheel` -- the simulator's wheel, unchanged, over this runtime's
clock and ``schedule``.  A lookup deadline is armed and cancelled
within milliseconds almost every time; on the wheel that cancel is a
dict pop, and asyncio's heap holds one timer per non-empty bucket
instead of one lazily cancelled handle per lookup.

Determinism caveat (see DESIGN.md section 14): under AsyncRuntime the
*interleaving* of peers is whatever the loop and the kernel produce --
two live runs are not bit-identical.  What stays deterministic is each
peer's sequential behaviour given its inbound message order; the
sim-vs-live conformance suite exploits this by driving strictly
sequential traffic.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.runtime.base import Wire
from repro.sim.timerwheel import TimerHandle, TimerWheel

__all__ = ["AsyncHandle", "AsyncRuntime"]


class AsyncHandle:
    """Cancel handle wrapping one ``asyncio.TimerHandle``."""

    __slots__ = ("_timer", "cancelled")

    def __init__(self, timer: asyncio.TimerHandle) -> None:
        self._timer = timer
        self.cancelled = False

    def cancel(self) -> None:
        """Disarm the callback (idempotent; safe after it has fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        self._timer.cancel()

    def __repr__(self) -> str:
        return f"AsyncHandle(cancelled={self.cancelled})"


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

    __slots__ = ("loop", "wire", "timers", "_t0")

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
    ) -> Optional[AsyncHandle]:
        timer = self.loop.call_at(self._t0 + at, fn, *args)
        return AsyncHandle(timer) if handle else None

    def schedule_after(
        self, delay: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[AsyncHandle]:
        timer = self.loop.call_later(delay if delay > 0.0 else 0.0, fn, *args)
        return AsyncHandle(timer) if handle else None

    def timer_after(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self.timers.schedule_after(
            delay if delay > 0.0 else 0.0, fn, *args
        )

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------

    def send(self, dest: int, msg: Any, control: bool = False) -> None:
        wire = self.wire
        if wire is None:
            raise RuntimeError("AsyncRuntime has no wire attached")
        wire.send(dest, msg, control=control)

    def __repr__(self) -> str:
        return f"AsyncRuntime(t={self.now:.3f})"
