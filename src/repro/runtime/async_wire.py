"""Framed asyncio transport: the live-mode :class:`Wire`.

One cluster is a set of peer endpoints, each listening on its own
address -- a unix-domain socket (``("uds", path)``) or a TCP port
(``("tcp", host, port)``).  Every peer-to-peer message is one frame
(:mod:`repro.net.frame`) written to the *destination's* listener over
a lazily dialed, cached outbound link; links are write-only in the
peer plane (a response is an independent send to the origin's
listener, mirroring the simulator's transport, which has no notion of
a connection at all).

Both ends of a link are asyncio protocol objects, not streams: there
is no reader task, no ``StreamReader`` buffer and no future per read.
A listener connection (a ``BufferedProtocol`` reading into one buffer
the whole wire shares) feeds each chunk to a
:class:`~repro.net.frame.FrameReader`, decodes, and delivers
synchronously -- peer messages straight to the registered handler
(``peer.deliver``), client-plane messages
(:class:`~repro.net.message.ClientLookup`) to the ``on_client``
callback with the connection's transport so the service can answer on
the same socket.

``send`` is synchronous fire-and-forget, exactly like
``Transport.send``: protocol code never awaits.  The first frame for a
destination creates its :class:`_PeerLink` -- an outbox, the sender's
half of the link's digest table, and a dial task that retries (cluster
processes boot in any order); once connected the outbox flushes in
send order and later frames go straight to ``transport.write``,
preserving per-destination FIFO -- the same per-link ordering
guarantee the simulator's delivery ring provides.

**Link tables.**  Frames are encoded against the link's
:class:`~repro.net.codec.DigestTable`, so a sender's unchanged digest
snapshot crosses a link once and travels as its version afterwards.
The sender's table lives and dies with the ``_PeerLink`` (a lost
connection or a failed dial drops both, and the next send re-dials
with an empty table); the receiver's belongs to the accepted
connection's ``_Inbound``.  A link is one FIFO byte stream read by
one table, so the two ends agree by construction; a frame the reader
cannot decode or expand is a :class:`~repro.net.frame.FrameError`
that is counted, logged, and costs exactly that connection.

Counter parity with :class:`repro.net.transport.Transport`: ``n_sent``
/ ``n_control_sent`` / ``n_lost`` have the same meaning, so live and
simulated runs report through the same introspection surface; on top
the wire accounts for what it drops and saves (``n_frame_errors``,
``n_client_unhandled``, ``n_bytes_sent``, ``n_digests_full``,
``n_digests_elided``).
"""

from __future__ import annotations

import asyncio
import logging
import os
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.net.codec import DigestTable
from repro.net.frame import (
    FrameError,
    FrameReader,
    decode_message,
    encode_frame,
)
from repro.net.message import CONTROL_TYPES, ClientLookup

__all__ = ["AsyncWire", "tcp_addresses", "uds_addresses"]

_log = logging.getLogger(__name__)

#: ("uds", path) or ("tcp", host, port)
Address = Tuple[Any, ...]

#: bytes one read can take; a larger backlog just takes another read
_RECV_BUFFER = 65536


def uds_addresses(sock_dir: str, n_servers: int) -> Dict[int, Address]:
    """One unix-domain socket per server under ``sock_dir``."""
    return {
        sid: ("uds", os.path.join(sock_dir, f"peer-{sid}.sock"))
        for sid in range(n_servers)
    }


def tcp_addresses(
    host: str, port_base: int, n_servers: int
) -> Dict[int, Address]:
    """One TCP port per server: ``port_base + sid`` on ``host``."""
    return {
        sid: ("tcp", host, port_base + sid) for sid in range(n_servers)
    }


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection on local peer ``sid``'s listener.

    A *buffered* protocol: the transport ``recv_into``s the wire's one
    receive buffer instead of allocating a fresh 256 KiB ``bytes`` per
    read and shrinking it to the hundred bytes that arrived -- an
    allocation big enough to make glibc map and unmap memory on every
    read, which on this path cost up to a third of the throughput and
    made it depend on the allocator's mood (DESIGN.md section 14.3).
    """

    __slots__ = ("wire", "sid", "deliver", "frames", "seen", "transport")

    transport: asyncio.Transport  # set by connection_made

    def __init__(self, wire: "AsyncWire", sid: int) -> None:
        self.wire = wire
        self.sid = sid
        self.deliver = wire._endpoints[sid]
        self.frames = FrameReader()
        self.seen = DigestTable()

    def connection_made(  # type: ignore[override]
        self, transport: asyncio.Transport
    ) -> None:
        self.transport = transport
        self.wire._inbound.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.wire._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        wire = self.wire
        seen = self.seen
        try:
            # the buffer is shared by every connection of the wire and
            # the next read on any of them overwrites it; feed copies
            # out each payload and the partial tail it keeps
            for payload in self.frames.feed(wire._recv_view[:nbytes]):
                msg = decode_message(payload, seen)
                wire.n_delivered += 1
                if type(msg) is ClientLookup:
                    if wire.on_client is not None:
                        wire.on_client(self.sid, msg, self.transport)
                    else:
                        # no client plane attached: nobody will answer,
                        # and the client only learns by timing out
                        wire.n_client_unhandled += 1
                        _log.warning(
                            "peer %d: no client plane attached; dropping "
                            "lookup cqid=%d for node %d (%d dropped so far)",
                            self.sid, msg.cqid, msg.node,
                            wire.n_client_unhandled,
                        )
                else:
                    self.deliver(msg)
        except FrameError as exc:
            # the stream is corrupt or the tables are out of step:
            # nothing after this frame can be trusted, so the link goes
            # and the sender re-dials with empty tables
            wire.n_frame_errors += 1
            _log.warning(
                "peer %d: closing inbound connection: %s", self.sid, exc
            )
            self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.wire._inbound.discard(self)


class _PeerLink(asyncio.Protocol):
    """The dialed, write-only link to one destination's listener.

    Created by the first send to ``dest``; frames queue in ``outbox``
    until the dial lands.  ``sent`` is the sender's half of the link's
    digest table and never outlives the byte stream it describes.
    The peer closing its end arrives as ``connection_lost``, so a later
    send re-dials instead of writing into a dead socket.
    """

    __slots__ = ("wire", "dest", "sent", "outbox", "transport")

    def __init__(self, wire: "AsyncWire", dest: int) -> None:
        self.wire = wire
        self.dest = dest
        self.sent = DigestTable(wire._digest_counts)
        self.outbox: List[bytes] = []
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(  # type: ignore[override]
        self, transport: asyncio.Transport
    ) -> None:
        self.transport = transport
        if self.outbox:
            transport.write(b"".join(self.outbox))
            self.outbox.clear()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.wire._drop_link(self)


class AsyncWire:
    """Live transport over framed UDS/TCP connections."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        addresses: Dict[int, Address],
        on_client: Optional[
            Callable[[int, Any, asyncio.WriteTransport], None]
        ] = None,
        connect_retries: int = 100,
        connect_backoff: float = 0.05,
    ) -> None:
        self.loop = loop
        self.addresses = dict(addresses)
        self.on_client = on_client
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self._endpoints: Dict[int, Callable[[Any], None]] = {}
        self._links: Dict[int, _PeerLink] = {}
        self._inbound: Set[_Inbound] = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._dials: Set["asyncio.Task[None]"] = set()
        self._closed = False
        self.n_sent = 0
        self.n_control_sent = 0
        self.n_lost = 0
        self.n_delivered = 0
        self.n_frame_errors = 0
        #: client lookups that arrived with no ``on_client`` to take them
        self.n_client_unhandled = 0
        self.n_bytes_sent = 0
        # [full, elided]: one tally shared by every link's digest table
        self._digest_counts = [0, 0]
        # the one receive buffer of every inbound connection: the loop
        # runs get_buffer -> recv_into -> buffer_updated back to back,
        # and the frame reader copies out what it keeps before
        # buffer_updated returns
        self._recv_view = memoryview(bytearray(_RECV_BUFFER))

    # ------------------------------------------------------------------
    # registration and listeners
    # ------------------------------------------------------------------

    def register(self, server_id: int, handler: Callable[[Any], None]) -> None:
        """Register a locally hosted peer's delivery handler."""
        if server_id in self._endpoints:
            raise ValueError(f"server {server_id} already registered")
        if server_id not in self.addresses:
            raise ValueError(f"server {server_id} has no wire address")
        self._endpoints[server_id] = handler

    async def start_listeners(self) -> None:
        """Bind one listener per locally registered peer."""
        loop = self.loop
        for sid in sorted(self._endpoints):
            addr = self.addresses[sid]
            accept = partial(_Inbound, self, sid)
            server: asyncio.AbstractServer
            if addr[0] == "uds":
                path = addr[1]
                try:
                    os.unlink(path)  # stale socket from a previous run
                except OSError:
                    pass
                server = await loop.create_unix_server(accept, path=path)
            else:
                server = await loop.create_server(
                    accept, host=addr[1], port=addr[2]
                )
            self._servers.append(server)

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------

    def send(self, dest: int, msg: Any) -> None:
        """Fire-and-forget framed delivery to ``dest``'s listener."""
        if msg.__class__ in CONTROL_TYPES:
            self.n_control_sent += 1
        else:
            self.n_sent += 1
        if self._closed or dest not in self.addresses:
            self.n_lost += 1
            return
        link = self._links.get(dest)
        if link is None or (
            link.transport is not None and link.transport.is_closing()
        ):
            # none yet, or one that closed under us and whose
            # connection_lost is still queued on the loop
            link = self._open_link(dest)
        frame = encode_frame(msg, link.sent)
        self.n_bytes_sent += len(frame)
        if link.transport is not None:
            link.transport.write(frame)
        else:
            link.outbox.append(frame)

    def _open_link(self, dest: int) -> _PeerLink:
        """A fresh link (outbox, empty table, dial) replaces any old one."""
        link = self._links[dest] = _PeerLink(self, dest)
        task = self.loop.create_task(self._dial(link))
        self._dials.add(task)
        task.add_done_callback(self._dials.discard)
        return link

    def _drop_link(self, link: _PeerLink) -> None:
        """Forget ``link`` (and with it the sender's digest table)."""
        if self._links.get(link.dest) is link:
            del self._links[link.dest]

    async def _dial(self, link: _PeerLink) -> None:
        """Connect ``link`` with retries; its outbox flushes on success."""
        addr = self.addresses[link.dest]
        loop = self.loop
        for _attempt in range(self.connect_retries):
            if self._closed:
                break
            try:
                if addr[0] == "uds":
                    await loop.create_unix_connection(lambda: link, addr[1])
                else:
                    await loop.create_connection(
                        lambda: link, addr[1], addr[2]
                    )
                return
            except OSError:
                await asyncio.sleep(self.connect_backoff)
        # peer unreachable: everything queued for it is lost
        self.n_lost += len(link.outbox)
        if not self._closed:
            _log.warning(
                "peer %d at %s unreachable after %d dial attempts; "
                "%d queued frames lost",
                link.dest, addr, self.connect_retries, len(link.outbox),
            )
        self._drop_link(link)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    @property
    def n_digests_full(self) -> int:
        """Digest snapshots sent with their words."""
        return self._digest_counts[0]

    @property
    def n_digests_elided(self) -> int:
        """Digest snapshots sent as a version the link already carried."""
        return self._digest_counts[1]

    def counters(self) -> Dict[str, int]:
        """Every wire counter by name (the capacity record's block)."""
        return {
            "n_sent": self.n_sent,
            "n_control_sent": self.n_control_sent,
            "n_lost": self.n_lost,
            "n_delivered": self.n_delivered,
            "n_frame_errors": self.n_frame_errors,
            "n_client_unhandled": self.n_client_unhandled,
            "n_bytes_sent": self.n_bytes_sent,
            "n_digests_full": self.n_digests_full,
            "n_digests_elided": self.n_digests_elided,
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Stop listeners, close every connection, cancel pending dials."""
        self._closed = True
        for server in self._servers:
            server.close()
        # closing a transport only queues its connection_lost, so none
        # of these collections changes under the loops
        for conn in self._inbound:
            conn.transport.close()
        for link in self._links.values():
            if link.transport is not None:
                link.transport.close()
        for task in self._dials:
            task.cancel()
        if self._dials:
            await asyncio.gather(*self._dials, return_exceptions=True)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()

    def __repr__(self) -> str:
        return (
            f"AsyncWire(local={sorted(self._endpoints)}, "
            f"links={len(self._links)}, sent={self.n_sent})"
        )
