"""Live clients: framed lookups and closed-loop capacity discovery.

:class:`HomeConnection` is the minimal client endpoint: one framed
connection to a home peer's listener, correlation-id matching of
:class:`~repro.net.message.ClientLookup` requests to their replies,
and per-lookup timeout/retry (lookups are idempotent, so a timed-out
attempt is simply reissued -- the same masking strategy as the
simulator's :class:`~repro.client.client.TerraDirClient`).

:class:`AdaptiveLoadClient` drives a whole cluster with an AIMD
(additive-increase / multiplicative-decrease) controller, the classic
closed-loop rate-discovery shape used by telephony load generators:
offer an open-loop Poisson stream at the current target rate for one
epoch, measure p99 latency and drop rate, then

* **increase** the target additively while the epoch met the SLO
  (p99 at or under ``slo_p99``, drops at or under ``slo_drop_rate``),
* **back off** multiplicatively the moment it did not.

The oscillation around the knee *is* the measurement: the emitted
capacity curve (one point per epoch: target QPS, achieved QPS, p99,
drop rate) traces out sustainable throughput against latency, and the
reported ``max_sustainable_qps`` is the highest achieved rate of any
SLO-compliant epoch.

Destinations follow a :class:`~repro.workload.streams.WorkloadSpec` --
the same segment vocabulary (Zipf alpha, reshuffles, per-segment rate
multipliers) the simulated :class:`~repro.workload.arrivals
.WorkloadDriver` consumes -- so a live capacity run and a simulated
one can share a single workload definition.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.net.frame import FrameError, FrameReader, decode_message, encode_frame
from repro.net.message import ClientLookup, ClientLookupReply
from repro.runtime.async_runtime import AsyncRuntime
from repro.sim.rng import ZipfSampler, exponential
from repro.workload.streams import WorkloadSpec

__all__ = ["AdaptiveLoadClient", "HomeConnection", "SegmentSampler"]

#: bytes one read of a home connection can take (replies are ~50 B)
_RECV_BUFFER = 16384


class HomeConnection(asyncio.BufferedProtocol):
    """One client's framed connection to its home peer.

    The connection *is* the asyncio protocol: the transport reads into
    the connection's own buffer (no allocation per read, see
    :class:`repro.runtime.async_wire._Inbound`), replies are decoded in
    ``buffer_updated`` and resolve their lookup's future directly, a
    lookup's timeout is a timer on the connection's runtime wheel
    (``runtime.timer_after``, cancelled however the attempt ends) that
    resolves the same future with ``None``, and ``connection_lost``
    fails whatever is still in flight -- so a lookup never waits out
    its timeout against a socket that is gone.
    The client plane is stateless on the wire: frames are encoded and
    decoded without a link table.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, address: Tuple[Any, ...]) -> None:
        self.loop = loop
        self.address = address
        self.transport: Optional[asyncio.Transport] = None
        self._frames = FrameReader()
        self._recv_view = memoryview(bytearray(_RECV_BUFFER))
        self._pending: Dict[int, "asyncio.Future[Optional[ClientLookupReply]]"] = {}
        self.runtime = AsyncRuntime(loop)
        self._cqid = 0
        self.n_sent = 0
        self.n_replies = 0
        self.n_timeouts = 0
        #: attempts failed because the connection was (or went) down
        self.n_disconnects = 0

    async def connect(self, retries: int = 100, backoff: float = 0.05) -> None:
        last: Optional[OSError] = None
        for _attempt in range(retries):
            try:
                if self.address[0] == "uds":
                    await self.loop.create_unix_connection(
                        lambda: self, self.address[1]
                    )
                else:
                    await self.loop.create_connection(
                        lambda: self, self.address[1], self.address[2]
                    )
                return
            except OSError as exc:
                last = exc
                await asyncio.sleep(backoff)
        raise ConnectionError(
            f"could not reach home peer at {self.address}: {last}"
        )

    # -- asyncio.BufferedProtocol ------------------------------------------

    def connection_made(  # type: ignore[override]
        self, transport: asyncio.Transport
    ) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        try:
            for payload in self._frames.feed(bytes(self._recv_view[:nbytes])):
                msg = decode_message(payload)
                if type(msg) is not ClientLookupReply:
                    raise FrameError(
                        f"home peer sent a {type(msg).__name__}, not a reply"
                    )
                fut = self._pending.pop(msg.cqid, None)
                if fut is not None and not fut.done():
                    self.n_replies += 1
                    fut.set_result(msg)
        except FrameError:
            # corrupt stream: drop it; connection_lost fails what waits
            if self.transport is not None:
                self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for fut in pending:
            if not fut.done():
                self.n_disconnects += 1
                fut.set_result(None)

    # -- lookups ----------------------------------------------------------

    async def lookup(
        self, node: int, timeout: float, retries: int = 0
    ) -> Optional[ClientLookupReply]:
        """Resolve ``node``; None when every attempt failed.

        An attempt fails by timing out, by the connection dropping
        under it, or with a reply of ``ok=False`` (the server-side
        deadline fired) -- the query died inside the cluster and
        reissuing is the correct client response.
        """
        for _attempt in range(retries + 1):
            reply = await self._lookup_once(node, timeout)
            if reply is not None and reply.ok:
                return reply
        return None

    async def _lookup_once(
        self, node: int, timeout: float
    ) -> Optional[ClientLookupReply]:
        transport = self.transport
        if transport is None or transport.is_closing():
            self.n_disconnects += 1
            return None
        self._cqid += 1
        cqid = self._cqid
        fut: "asyncio.Future[Optional[ClientLookupReply]]" = (
            self.loop.create_future()
        )
        self._pending[cqid] = fut
        self.n_sent += 1
        transport.write(encode_frame(ClientLookup(cqid, node)))
        timer = self.runtime.timer_after(timeout, self._on_timeout, cqid)
        try:
            return await fut
        finally:
            # answered, timed out, disconnected or cancelled alike
            timer.cancel()
            self._pending.pop(cqid, None)

    def _on_timeout(self, cqid: int) -> None:
        fut = self._pending.pop(cqid, None)
        if fut is not None and not fut.done():
            self.n_timeouts += 1
            fut.set_result(None)

    async def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


class SegmentSampler:
    """Destination sampling over a :class:`WorkloadSpec`'s segments.

    Mirrors :func:`~repro.workload.arrivals.iter_arrivals`'s
    semantics -- one popularity permutation, reshuffled at segment
    boundaries flagged ``reshuffle``, one Zipf sampler per alpha --
    driven by *elapsed* time instead of engine time.  Past the final
    boundary the last segment's shape keeps applying (a live capacity
    run outlives its nominal spec duration by design).

    Every sampler the spec needs is built here, before the generator
    starts: a million-node CDF takes ~0.2 s, which on the event loop
    would stall every lookup in flight.  Building draws nothing from
    ``rng``, so the stream is the lazily-built one.
    """

    def __init__(self, spec: WorkloadSpec, n_nodes: int, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.perm: List[int] = list(range(n_nodes))
        rng.shuffle(self.perm)
        self._samplers: Dict[float, ZipfSampler] = {
            alpha: ZipfSampler(n_nodes, alpha)
            for alpha in sorted({seg.alpha for seg in spec.segments})
            if alpha != 0.0
        }
        self._boundaries = spec.boundaries()
        self._idx = 0

    def _advance(self, rel_t: float) -> None:
        idx = self._idx
        last = len(self.spec.segments) - 1
        while idx < last and rel_t >= self._boundaries[idx]:
            idx += 1
            if self.spec.segments[idx].reshuffle:
                self.rng.shuffle(self.perm)
        self._idx = idx

    def segment_at(self, rel_t: float):
        self._advance(rel_t)
        return self.spec.segments[self._idx]

    def dest(self, rel_t: float) -> int:
        """Draw a destination node for time-offset ``rel_t``."""
        seg = self.segment_at(rel_t)
        if seg.alpha == 0.0:
            return self.rng.randrange(len(self.perm))
        return self.perm[self._samplers[seg.alpha].sample(self.rng)]


class AdaptiveLoadClient:
    """AIMD capacity discovery against a live cluster."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        addresses: Dict[int, Tuple[Any, ...]],
        home_sids: List[int],
        spec: WorkloadSpec,
        n_nodes: int,
        slo_p99: float = 0.25,
        slo_drop_rate: float = 0.01,
        start_rate: float = 50.0,
        add_step: float = 25.0,
        md_factor: float = 0.65,
        epoch: float = 1.0,
        lookup_timeout: float = 1.0,
        lookup_retries: int = 0,
        max_in_flight: int = 2000,
    ) -> None:
        if not home_sids:
            raise ValueError("need at least one home sid")
        if not 0.0 < md_factor < 1.0:
            raise ValueError("md_factor must be in (0, 1)")
        self.loop = loop
        self.addresses = addresses
        self.home_sids = list(home_sids)
        self.spec = spec
        self.slo_p99 = slo_p99
        self.slo_drop_rate = slo_drop_rate
        self.rate = start_rate
        self.add_step = add_step
        self.md_factor = md_factor
        self.epoch = epoch
        self.lookup_timeout = lookup_timeout
        self.lookup_retries = lookup_retries
        self.max_in_flight = max_in_flight
        self._rng = random.Random(spec.seed ^ 0xA11CE5)
        self._sampler = SegmentSampler(spec, n_nodes, self._rng)
        self._conns: List[HomeConnection] = []
        self._in_flight = 0
        self._shed = 0
        self.points: List[Dict[str, float]] = []
        self.n_issued = 0
        self.n_completed = 0
        self.n_dropped = 0

    # ------------------------------------------------------------------

    async def connect(self) -> None:
        for sid in self.home_sids:
            conn = HomeConnection(self.loop, self.addresses[sid])
            await conn.connect()
            self._conns.append(conn)

    async def close(self) -> None:
        for conn in self._conns:
            await conn.close()
        self._conns.clear()

    # ------------------------------------------------------------------

    async def run(self, duration: float) -> Dict[str, Any]:
        """Drive the cluster for ``duration`` seconds; return the curve."""
        if not self._conns:
            await self.connect()
        t0 = self.loop.time()
        deadline = t0 + duration
        epoch_idx = 0
        while self.loop.time() < deadline:
            epoch_end = min(self.loop.time() + self.epoch, deadline)
            stats = await self._run_epoch(t0, epoch_end)
            self._control(epoch_idx, stats)
            epoch_idx += 1
        return self.result()

    async def _run_epoch(
        self, t0: float, epoch_end: float
    ) -> Dict[str, float]:
        """Offer an open-loop Poisson stream at the current target rate."""
        issued = 0
        outcomes: List[Optional[float]] = []  # latency, or None = drop
        done: List["asyncio.Task[None]"] = []
        started = self.loop.time()
        rng = self._rng
        while True:
            now = self.loop.time()
            if now >= epoch_end:
                break
            rel_t = now - t0
            seg = self._sampler.segment_at(rel_t)
            rate = self.rate * seg.rate_mult
            gap = exponential(rng, 1.0 / rate) if rate > 0 else self.epoch
            sleep_for = min(gap, epoch_end - now)
            await asyncio.sleep(sleep_for)
            if self.loop.time() >= epoch_end:
                break
            if self._in_flight >= self.max_in_flight:
                # protect the process; an overloaded cluster already
                # shows up as drops, shed arrivals count the same way
                self._shed += 1
                outcomes.append(None)
                issued += 1
                continue
            node = self._sampler.dest(self.loop.time() - t0)
            conn = self._conns[issued % len(self._conns)]
            issued += 1
            self._in_flight += 1
            done.append(
                self.loop.create_task(self._one_lookup(conn, node, outcomes))
            )
        if done:
            await asyncio.gather(*done, return_exceptions=True)
        elapsed = max(self.loop.time() - started, 1e-9)
        latencies = sorted(v for v in outcomes if v is not None)
        completed = len(latencies)
        dropped = len(outcomes) - completed
        p99 = latencies[
            max(0, int(0.99 * (completed - 1)))
        ] if completed else float("inf")
        self.n_issued += issued
        self.n_completed += completed
        self.n_dropped += dropped
        return {
            "issued": float(issued),
            "completed": float(completed),
            "dropped": float(dropped),
            "elapsed": elapsed,
            "achieved_qps": completed / elapsed,
            "offered_qps": issued / elapsed,
            "p99": p99,
            "drop_rate": dropped / issued if issued else 0.0,
        }

    async def _one_lookup(
        self, conn: HomeConnection, node: int, outcomes: List[Optional[float]]
    ) -> None:
        t = self.loop.time()
        try:
            reply = await conn.lookup(
                node, self.lookup_timeout, self.lookup_retries
            )
        finally:
            self._in_flight -= 1
        if reply is None:
            outcomes.append(None)
        else:
            outcomes.append(self.loop.time() - t)

    def _control(self, epoch_idx: int, stats: Dict[str, float]) -> None:
        """The AIMD step: one rate decision per measured epoch."""
        met_slo = (
            stats["completed"] > 0
            and stats["p99"] <= self.slo_p99
            and stats["drop_rate"] <= self.slo_drop_rate
        )
        point = dict(stats)
        point["epoch"] = float(epoch_idx)
        point["target_qps"] = self.rate
        point["met_slo"] = 1.0 if met_slo else 0.0
        self.points.append(point)
        if met_slo:
            self.rate += self.add_step
        else:
            self.rate = max(1.0, self.rate * self.md_factor)

    def result(self) -> Dict[str, Any]:
        """The capacity-curve artifact payload."""
        sustainable = [
            p["achieved_qps"] for p in self.points if p["met_slo"] > 0
        ]
        return {
            "workload": self.spec.name,
            "slo_p99": self.slo_p99,
            "slo_drop_rate": self.slo_drop_rate,
            "epoch_seconds": self.epoch,
            "n_epochs": len(self.points),
            "n_issued": self.n_issued,
            "n_completed": self.n_completed,
            "n_dropped": self.n_dropped,
            "n_shed": self._shed,
            "max_sustainable_qps": max(sustainable) if sustainable else 0.0,
            "points": self.points,
        }
