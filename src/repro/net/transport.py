"""Constant-latency message transport.

The paper's methodology fixes the application-layer network time at a
constant per hop and explicitly does not model network contention; the
transport therefore only delays delivery by ``net_delay`` and invokes
the destination server's handler.

Delivery ring (the constant-delay fast path)
--------------------------------------------
With a constant delay ``d`` every message sent at engine time ``t``
delivers at ``t + d``, and sends only happen while the engine clock is
non-decreasing -- so delivery times are non-decreasing and FIFO send
order *is* delivery-time order.  Instead of one heap entry per
in-flight message the transport keeps a plain FIFO ring of
``(deliver_at, src_shard, send_seq, dest, msg)`` and at most **one**
live engine event (the drain for the ring head).  The drain delivers
every head entry due at its timestamp, then re-arms itself for the new
head.  This keeps the engine heap small no matter how many messages
are in flight, and preserves determinism: entries sharing a delivery
time fire in send order, exactly as their per-message heap entries
would have (``seq`` tie-breaking).  Handlers may send during a drain;
the new entries land at ``now + d``, strictly later than the batch
being drained, so the ring stays time-ordered.

The serial and the sharded transport share this ring and its one drain.
``_drain_at`` is the time of the armed drain event (``inf`` when none
is) and the only rule is: **arm when an entry lands earlier than
``_drain_at``**.  It keeps the drain's own time while the drain
delivers, so a handler's sends (due at ``now + d``) never arm a second
event; the drain re-arms, or disarms, once, when it is done.  The
leading ``(deliver_at, src_shard, send_seq)`` of an entry is the key a
sharded run merges on; a serial run is shard 0.

The per-message heap path remains and is used whenever it must be:
with ``net_jitter > 0`` delivery times are not monotone, and with
``net_delay == 0`` a drain could chase same-timestamp sends forever.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from math import inf
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Engine, EventHandle, ShardError
from repro.sim.rng import exponential


def shard_of_sid(sid: int, n_servers: int, n_shards: int) -> int:
    """The shard owning server ``sid`` (contiguous balanced blocks).

    Contiguity matters for determinism, not just locality: per-shard
    event logs are merged by ``(time, shard, seq)`` at barriers, and
    simultaneous per-server records (the maintenance tick's load
    samples) are emitted in ascending sid order within each shard -- so
    monotone contiguous blocks make the merged order equal the serial
    all-sids-ascending order exactly.
    """
    return sid * n_shards // n_servers


def shard_sids(shard_id: int, n_servers: int, n_shards: int) -> List[int]:
    """All server ids assigned to ``shard_id``."""
    return [
        s for s in range(n_servers)
        if shard_of_sid(s, n_servers, n_shards) == shard_id
    ]


class Transport:
    """Delivers messages between servers with a fixed one-way delay.

    Supports fail-stop server failures: messages addressed to a failed
    server are silently lost (after notifying the optional ``on_lost``
    hook so the system can account for vanished queries).  Failure is
    checked both at send time and at delivery time, so messages already
    in flight when the server dies are lost too.
    """

    __slots__ = (
        "engine",
        "net_delay",
        "net_jitter",
        "_jitter_rng",
        "_endpoints",
        "failed",
        "on_lost",
        "n_sent",
        "n_control_sent",
        "n_lost",
        "_ring",
        "_ring_enabled",
        "_send_seq",
        "_drain_handle",
        "_drain_at",
    )

    def __init__(self, engine: Engine, net_delay: float,
                 net_jitter: float = 0.0, jitter_seed: int = 0) -> None:
        if net_delay < 0:
            raise ValueError("net_delay must be >= 0")
        if net_jitter < 0:
            raise ValueError("net_jitter must be >= 0")
        self.engine = engine
        self.net_delay = net_delay
        self.net_jitter = net_jitter
        self._jitter_rng = random.Random(jitter_seed ^ 0x31AB5)
        self._endpoints: Dict[int, Callable[[Any], None]] = {}
        self.failed: Set[int] = set()
        self.on_lost: Optional[Callable[[int, Any], None]] = None
        self.n_sent = 0
        self.n_control_sent = 0
        self.n_lost = 0
        self._ring: Deque[Tuple[float, int, int, int, Any]] = deque()
        self._ring_enabled = net_jitter == 0.0 and net_delay > 0.0
        self._send_seq = 0
        self._drain_handle: Optional[EventHandle] = None
        self._drain_at = inf

    def register(self, server_id: int, handler: Callable[[Any], None]) -> None:
        """Register a server's delivery handler."""
        if server_id in self._endpoints:
            raise ValueError(f"server {server_id} already registered")
        self._endpoints[server_id] = handler

    def send(self, dest: int, msg: Any, control: bool = False) -> None:
        """Schedule delivery of ``msg`` at ``dest`` after ``net_delay``.

        Args:
            control: marks replication-protocol traffic (counted
                separately to validate the paper's claim that control
                traffic is >=100x rarer than queries).
        """
        if dest not in self._endpoints:
            raise KeyError(f"no server registered with id {dest}")
        if dest in self.failed:
            self._lose(dest, msg)
            return
        if control:
            self.n_control_sent += 1
        else:
            self.n_sent += 1
        engine = self.engine
        if self._ring_enabled:
            at = engine.now + self.net_delay
            self._send_seq += 1
            self._ring.append((at, 0, self._send_seq, dest, msg))
            if at < self._drain_at:
                self._arm(at)
            return
        delay = self.net_delay
        if self.net_jitter > 0:
            delay += exponential(self._jitter_rng, self.net_jitter)
        engine.schedule_after(delay, self._deliver, dest, msg)

    def _arm(self, at: float) -> None:
        self._drain_handle = self.engine.schedule(at, self._drain, handle=True)
        self._drain_at = at

    def _drain(self) -> None:
        """Deliver every ring entry due now, then re-arm for the head."""
        ring = self._ring
        now = self.engine.now
        failed = self.failed
        endpoints = self._endpoints
        while ring and ring[0][0] <= now:
            _, _, _, dest, msg = ring.popleft()
            if dest in failed:
                self._lose(dest, msg)
            else:
                endpoints[dest](msg)
        if ring:
            self._arm(ring[0][0])
        else:
            self._drain_at = inf

    def _deliver(self, dest: int, msg: Any) -> None:
        if dest in self.failed:
            self._lose(dest, msg)
            return
        self._endpoints[dest](msg)

    def _lose(self, dest: int, msg: Any) -> None:
        self.n_lost += 1
        if self.on_lost is not None:
            self.on_lost(dest, msg)

    @property
    def n_in_flight(self) -> int:
        """Messages accepted but not yet delivered on the ring path.

        Always 0 on the heap fallback path (jitter or zero delay),
        where in-flight messages live on the engine heap instead.
        """
        return len(self._ring)

    def fail_server(self, server_id: int) -> None:
        """Fail-stop ``server_id``: all traffic to it is lost."""
        if server_id not in self._endpoints:
            raise KeyError(f"no server registered with id {server_id}")
        self.failed.add(server_id)

    def recover_server(self, server_id: int) -> None:
        self.failed.discard(server_id)

    @property
    def n_servers(self) -> int:
        return len(self._endpoints)


class ShardTransport(Transport):
    """One shard's slice of the transport under windowed execution.

    Local deliveries use the base class's ring and drain unchanged.
    Shard-specific are only :meth:`send`, which buffers entries for
    servers on other shards in per-destination-shard egress lists,
    :meth:`collect_egress`, which hands those to the
    :class:`~repro.sim.shard.WindowedCoordinator` at each window
    barrier, and :meth:`ingest`, which merges what other shards sent.
    The leading ``(deliver_at, src_shard, send_seq)`` of an entry is a
    globally unique, totally ordered key (``send_seq`` is a per-shard
    monotone counter), so merging remote batches into the local ring
    with :func:`heapq.merge` yields one canonical delivery order --
    ties in ``deliver_at`` across shards break by ``(src_shard,
    send_seq)``, which is the documented merge rule.

    Constant lookahead is load-bearing: with ``net_jitter > 0``
    delivery times are not ``now + net_delay`` and the window argument
    collapses, and with ``net_delay == 0`` the window width would be
    zero -- both raise :class:`~repro.sim.engine.ShardError` so callers
    fall back to the serial engine loudly, never silently diverge.
    """

    __slots__ = ("shard_id", "n_shards", "total_servers", "_egress")

    def __init__(
        self,
        engine: Engine,
        net_delay: float,
        *,
        shard_id: int,
        n_shards: int,
        n_servers: int,
        net_jitter: float = 0.0,
        jitter_seed: int = 0,
    ) -> None:
        if net_jitter > 0:
            raise ShardError(
                "sharded execution requires constant delivery delay "
                f"(net_jitter={net_jitter} breaks the conservative "
                "lookahead); run with net_jitter=0 or on the serial engine"
            )
        if net_delay <= 0:
            raise ShardError(
                "sharded execution requires net_delay > 0 "
                "(the window width equals the delivery delay)"
            )
        if not 0 <= shard_id < n_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {n_shards}")
        super().__init__(engine, net_delay, net_jitter=0.0,
                         jitter_seed=jitter_seed)
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.total_servers = n_servers
        self._egress: Dict[int, List[Tuple]] = {}

    # ------------------------------------------------------------------

    def send(self, dest: int, msg: Any, control: bool = False) -> None:
        """Ring-buffer local deliveries; buffer cross-shard sends."""
        if not 0 <= dest < self.total_servers:
            raise KeyError(f"no server registered with id {dest}")
        if dest in self.failed:
            self._lose(dest, msg)
            return
        if control:
            self.n_control_sent += 1
        else:
            self.n_sent += 1
        at = self.engine.now + self.net_delay
        self._send_seq += 1
        entry = (at, self.shard_id, self._send_seq, dest, msg)
        dest_shard = shard_of_sid(dest, self.total_servers, self.n_shards)
        if dest_shard == self.shard_id:
            self._ring.append(entry)
            if at < self._drain_at:
                self._arm(at)
        else:
            self._egress.setdefault(dest_shard, []).append(entry)

    # ------------------------------------------------------------------
    # barrier protocol (driven by the WindowedCoordinator)
    # ------------------------------------------------------------------

    def collect_egress(self) -> Dict[int, List[Tuple]]:
        """Hand over (and reset) the buffered cross-shard batches.

        Each batch is already sorted by ``(deliver_at, src_shard,
        send_seq)``: sends happen in non-decreasing engine time with a
        monotone sequence counter, so append order is sorted order.
        """
        out = self._egress
        self._egress = {}
        return out

    def ingest(self, batches: List[List[Tuple]]) -> None:
        """Merge remote batches into the local ring (window barrier).

        The merged ring is sorted by the canonical key; delivery then
        proceeds through the normal drain, so entries sharing a
        delivery time fire in key order exactly as documented.  The
        armed drain is replaced only when the merged head is earlier;
        a head that stayed put costs no cancelled heap entry.
        """
        batches = [b for b in batches if b]
        if not batches:
            return
        merged = list(heapq.merge(self._ring, *batches))
        head = merged[0][0]
        if head < self.engine.now:
            raise ShardError(
                f"window protocol violation: message for t={head} "
                f"arrived at barrier t={self.engine.now}"
            )
        self._ring = deque(merged)
        if head < self._drain_at:
            if self._drain_handle is not None:
                self._drain_handle.cancel()  # no-op on one that has fired
            self._arm(head)

    # ------------------------------------------------------------------

    @property
    def n_in_flight(self) -> int:
        """Ring entries plus not-yet-exchanged egress entries."""
        return len(self._ring) + sum(len(b) for b in self._egress.values())

    def fail_server(self, server_id: int) -> None:
        """Fail-stop a *local* server (cross-shard failures need a
        coordination channel the windowed protocol does not carry)."""
        if server_id not in self._endpoints:
            raise ShardError(
                f"server {server_id} is not local to shard {self.shard_id}; "
                "failure injection across shards is not supported -- run "
                "resilience experiments on the serial engine"
            )
        self.failed.add(server_id)
