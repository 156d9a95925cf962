"""The live runtime: the protocol trio over an asyncio event loop.

This module is a sanctioned *wall-clock chokepoint* (detlint DET001):
live mode genuinely runs in real time, and every wall-clock read in
the codebase funnels through here.  ``rt.now`` is the loop's monotonic
clock zeroed at runtime construction, so protocol timestamps are small
non-negative floats directly comparable to simulated seconds (latency
arithmetic, load windows, and idle timeouts all behave identically).

Scheduling maps onto ``loop.call_at`` / ``loop.call_later``.  There is
no timer-wheel: asyncio's timer heap already handles cancelled entries
lazily, and live clusters arm orders of magnitude fewer concurrent
timers than paper-scale simulations, so ``timer_after`` is plain
``call_later`` with a cancel handle.  The one cancel-heavy user, a
deadline per client lookup, does not arm a timer per lookup at all:
:class:`DeadlineQueue` keeps them in expiry order behind one timer.

Determinism caveat (see DESIGN.md section 14): under AsyncRuntime the
*interleaving* of peers is whatever the loop and the kernel produce --
two live runs are not bit-identical.  What stays deterministic is each
peer's sequential behaviour given its inbound message order; the
sim-vs-live conformance suite exploits this by driving strictly
sequential traffic.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.runtime.base import Wire

__all__ = ["AsyncHandle", "AsyncRuntime", "DeadlineQueue"]


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
    """

    __slots__ = ("loop", "wire", "_t0")

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
    ) -> AsyncHandle:
        timer = self.loop.call_later(delay if delay > 0.0 else 0.0, fn, *args)
        return AsyncHandle(timer)

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


class DeadlineQueue:
    """Pending deadlines in expiry order behind one armed timer.

    A lookup used to arm a ``call_later`` handle and cancel it
    microseconds later, and the cancelled handles kept asyncio's heap
    large.  The callers of one queue share one timeout, so arrival
    order is expiry order: :meth:`push` appends (a shorter timeout
    behind a longer one is inserted where it belongs) and only the head
    has a timer.  :meth:`settle`, called after every completion, and
    the timer drop heads that are no longer waited for -- so the queue
    holds the open deadlines plus whatever completed behind the oldest
    open one, and a timer is armed exactly while it is non-empty.
    ``expire(key)`` runs once for a key that ``is_open(key)`` still
    holds at its expiry, at the first loop pass at or after it.
    """

    __slots__ = ("_loop", "_is_open", "_expire", "_queue", "_timer")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        is_open: Callable[[Any], bool],
        expire: Callable[[Any], None],
    ) -> None:
        self._loop = loop
        self._is_open = is_open
        self._expire = expire
        self._queue: Deque[Tuple[float, Any]] = deque()
        self._timer: Optional[asyncio.TimerHandle] = None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def armed(self) -> bool:
        return self._timer is not None

    def push(self, timeout: float, key: Any) -> None:
        """Queue ``key`` to expire ``timeout`` seconds from now."""
        queue = self._queue
        expiry = self._loop.time() + timeout
        i = len(queue)
        while i and queue[i - 1][0] > expiry:
            i -= 1
        queue.insert(i, (expiry, key))
        if i == 0:
            self._arm()

    def settle(self) -> None:
        """Drop the heads that were answered; disarm on an empty queue."""
        queue = self._queue
        while queue and not self._is_open(queue[0][1]):
            queue.popleft()
        if not queue:
            self.clear()

    def clear(self) -> None:
        """Forget every deadline (what they waited on is gone)."""
        self._queue.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(self._queue[0][0], self._fire)

    def _fire(self) -> None:
        self._timer = None
        queue = self._queue
        now = self._loop.time()
        while queue:
            expiry, key = queue[0]
            if self._is_open(key):
                if expiry > now:
                    # also the head a stale timer finds: it was armed
                    # for a deadline answered since
                    self._arm()
                    return
                queue.popleft()
                self._expire(key)
            else:
                queue.popleft()
