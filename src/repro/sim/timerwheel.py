"""A coarse timer-wheel for cancel-heavy timeouts.

The client arms one lookup timeout per issued lookup and cancels it
when the response arrives -- which is almost always.  Routing those
timeouts through a scheduler's heap (the simulator's
:class:`~repro.sim.engine.Engine` or asyncio's timer heap) leaves one
lazily-cancelled heap entry per *completed* lookup for the full
timeout duration (millions of dead entries at paper scale), inflating
every heap operation's ``log n``.

The wheel instead buckets timers by coarse tick
(``bucket = floor(deadline / tick)``).  Each non-empty bucket costs the
host exactly **one** scheduled callback, at the bucket's start;
cancellation removes the timer from its bucket dict immediately, so
cancelled timers free their memory and never touch the heap at all.

Exactness is preserved: when a bucket fires, every timer still armed is
*promoted* to a real scheduled callback at its exact deadline (with a
cancellation handle, so late cancels still work).  A timer therefore
fires at precisely ``now + delay`` -- never rounded to a tick boundary
-- and a fixed-seed run behaves bit-identically to the per-timer heap
pattern it replaces.  Only timers that survive into the last tick
before their deadline ever reach the heap, and those are the rare ones
that are actually about to fire.

The host is anything with the seam's clock and absolute scheduling
(:mod:`repro.runtime.base`): ``.now`` and ``.schedule(at, fn, *args,
handle=True)``.  The simulator's :class:`~repro.sim.engine.Engine`
and :class:`~repro.runtime.async_runtime.AsyncRuntime` both are, so
one wheel serves both runtimes.

Pending-callback bound: the host carries at most one callback per
distinct non-empty bucket (``horizon / tick``) plus the promoted timers
of the current tick -- independent of how many timers were armed and
cancelled.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from repro.runtime.base import CancelHandle, Clock
from repro.sim.engine import SimError


class WheelHost(Clock, Protocol):
    """What a wheel asks of its host: the seam's clock and absolute
    scheduling with a cancel handle."""

    def schedule(
        self, at: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[CancelHandle]:
        ...


class TimerHandle:
    """Cancellation handle for one armed timer."""

    __slots__ = ("_wheel", "_bucket", "_token", "_promoted", "cancelled")

    def __init__(self, wheel: "TimerWheel", bucket: int, token: int) -> None:
        self._wheel = wheel
        self._bucket = bucket
        self._token = token
        self._promoted: Optional[CancelHandle] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Disarm the timer (idempotent; safe after it has fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        self._wheel.n_cancelled += 1
        if self._promoted is not None:
            self._promoted.cancel()
            return
        bucket = self._wheel._buckets.get(self._bucket)
        if bucket is not None:
            bucket.pop(self._token, None)

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled
                 else "promoted" if self._promoted is not None
                 else "armed")
        return f"TimerHandle({state})"


class TimerWheel:
    """Coarse-bucketed timers over a shared clock and scheduler."""

    __slots__ = ("host", "tick", "_buckets", "_token", "n_armed",
                 "n_cancelled", "n_fired")

    def __init__(self, host: WheelHost, tick: float = 1.0) -> None:
        if tick <= 0:
            raise ValueError("tick must be > 0")
        self.host = host
        self.tick = tick
        # bucket index -> {token: (deadline, fn, args, handle)}; dicts
        # preserve insertion order, which is arming order within a bucket
        self._buckets: Dict[
            int, Dict[int, Tuple[float, Callable[..., None], tuple, TimerHandle]]
        ] = {}
        self._token = 0
        self.n_armed = 0
        self.n_cancelled = 0
        self.n_fired = 0  # released by their bucket (inline or promoted)

    def __len__(self) -> int:
        """Timers currently armed (excluding promoted ones)."""
        return sum(len(b) for b in self._buckets.values())

    @property
    def n_buckets(self) -> int:
        """Non-empty buckets, each owning exactly one host callback."""
        return len(self._buckets)

    def schedule_after(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Arm ``fn(*args)`` to fire exactly ``delay`` from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        host = self.host
        now = host.now
        deadline = now + delay
        idx = int(deadline / self.tick)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._buckets[idx] = {}
            # the bucket callback must not precede ``now`` (possible when
            # ``delay < tick``) nor follow any deadline it covers
            at = idx * self.tick
            if at < now:
                at = now
            host.schedule(at, self._fire_bucket, idx)
        self._token += 1
        handle = TimerHandle(self, idx, self._token)
        bucket[self._token] = (deadline, fn, args, handle)
        self.n_armed += 1
        return handle

    def _fire_bucket(self, idx: int) -> None:
        """Promote every survivor to an exact-deadline host callback."""
        bucket = self._buckets.pop(idx, None)
        if not bucket:
            return
        host = self.host
        now = host.now
        for deadline, fn, args, handle in bucket.values():
            self.n_fired += 1
            if deadline <= now:
                # deadline on the bucket boundary (or, on a wall clock,
                # already passed): fire inline, the clock is there
                fn(*args)
            else:
                handle._promoted = host.schedule(
                    deadline, fn, *args, handle=True
                )

    def __repr__(self) -> str:
        return (
            f"TimerWheel(tick={self.tick}, armed={len(self)}, "
            f"buckets={self.n_buckets})"
        )
