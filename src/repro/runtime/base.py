"""The runtime seam: what protocol code may ask of its host.

Protocol components (the Peer pipeline, the replication manager, the
client) never touch an engine, an event loop, or a socket directly.
They hold one injected *runtime* handle and use exactly three
capabilities:

* :class:`Clock` -- ``rt.now``, the current time in seconds.  Under
  the simulator this is the engine clock; under asyncio it is a
  monotonic wall clock zeroed at runtime construction.
* :class:`Scheduler` -- ``rt.schedule(at, fn, *args)`` /
  ``rt.schedule_after(delay, fn, *args)`` for ordinary callbacks, and
  ``rt.timer_after(delay, fn, *args)`` for cancel-heavy timeouts
  (lookup deadlines, session liveness).  Both runtimes route
  ``timer_after`` through a :class:`~repro.sim.timerwheel.TimerWheel`
  over their own clock and ``schedule``, so a cancelled timeout is a
  dict pop and never a dead entry on either runtime's event heap.
* :class:`Wire` -- ``rt.send(dest, msg)``, one-way message delivery
  to server ``dest``, counted as control traffic by the message's class
  (:data:`repro.net.message.CONTROL_TYPES`).  The simulator's delivery
  ring and the framed asyncio transport both sit behind this call.

The contract is deliberately minimal: nothing here exposes event
counts, heap access, run loops, or connection state, so a component
written against :class:`Runtime` cannot tell which world it is in.
``repro/runtime/sim_runtime.py`` binds the trio to the existing
discrete-event machinery (bit-identical by construction -- every
method *is* the underlying bound method); ``repro/runtime/async_*``
bind it to an asyncio event loop and real sockets.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional

if sys.version_info >= (3, 8):
    from typing import Protocol, runtime_checkable
else:  # pragma: no cover - repo floor is 3.9, guard kept for vendoring
    from typing_extensions import Protocol, runtime_checkable  # type: ignore

__all__ = [
    "CancelHandle",
    "Clock",
    "Runtime",
    "Scheduler",
    "Wire",
]


@runtime_checkable
class CancelHandle(Protocol):
    """A cancellable scheduled callback: an event-heap entry's
    :class:`~repro.sim.engine.EventHandle` (the engine's heap, or the
    live runtime's) or a wheel timer.  ``cancel`` is idempotent and safe
    after firing."""

    cancelled: bool

    def cancel(self) -> None:
        ...


@runtime_checkable
class Clock(Protocol):
    """Read-only access to the runtime's notion of "now" (seconds)."""

    @property
    def now(self) -> float:
        ...


@runtime_checkable
class Scheduler(Protocol):
    """Callback scheduling against the runtime clock."""

    def schedule(
        self, at: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[CancelHandle]:
        """Run ``fn(*args)`` at absolute time ``at``; with
        ``handle=True`` return a :class:`CancelHandle` for it."""
        ...

    def schedule_after(
        self, delay: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[CancelHandle]:
        """Run ``fn(*args)`` after ``delay`` seconds."""
        ...

    def timer_after(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> CancelHandle:
        """Arm a timeout expected to be cancelled before it fires.

        Semantically identical to ``schedule_after(..., handle=True)``
        but always returns a handle, and implementations route it
        through their cancel-cheap path (the runtime's timer wheel)."""
        ...


@runtime_checkable
class Wire(Protocol):
    """One-way message delivery to another server."""

    def send(self, dest: int, msg: Any) -> None:
        """Deliver ``msg`` to server ``dest``; a class in
        :data:`~repro.net.message.CONTROL_TYPES` counts as
        replication-protocol traffic, anything else as a query's."""
        ...


@runtime_checkable
class Runtime(Protocol):
    """The full bundle protocol components are injected with.

    Structurally the union of :class:`Clock`, :class:`Scheduler`, and
    :class:`Wire` (spelled out because ``Protocol`` intersection via
    inheritance breaks ``runtime_checkable`` property checks on some
    interpreter versions).
    """

    @property
    def now(self) -> float:
        ...

    def schedule(
        self, at: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[CancelHandle]:
        ...

    def schedule_after(
        self, delay: float, fn: Callable[..., None], *args: Any,
        handle: bool = False,
    ) -> Optional[CancelHandle]:
        ...

    def timer_after(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> CancelHandle:
        ...

    def send(self, dest: int, msg: Any) -> None:
        ...
