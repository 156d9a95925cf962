"""Lookup deadlines: a timer per lookup on the runtime's wheel, for
the service and for each home connection, instead of one armed and
cancelled asyncio ``call_later`` per lookup (DESIGN.md section 14.3).

What must hold: a response after the deadline is ignored; a lost
connection fails what waits; a lookup that ends in any way leaves
nothing in the wheel; and asyncio's timer heap holds no more timers
than the wheel has buckets (the runtime's one timer for its own heap),
not one per lookup in flight.  Also here: the silent failure
sites the live path used to have (deadline expiry, a dial given up, a
client frame with no client plane) each log one warning, and
``AsyncRuntime``'s loop rule.  The wheel itself is tested on both
runtimes in ``tests/test_timerwheel.py``.
"""

import asyncio
import logging
import os
import tempfile

import pytest

from repro.net.frame import FrameReader, decode_message, encode_frame
from repro.net.message import ClientLookup, ClientLookupReply
from repro.runtime.async_client import HomeConnection
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_service import LiveService
from repro.runtime.async_wire import AsyncWire
from tests.test_live_conformance import _start_scripted_peer
from tests.test_wire_links import bare_wire, in_sock_dir, query, until


# ----------------------------------------------------------------------
# home connections
# ----------------------------------------------------------------------

def test_a_response_after_the_deadline_is_ignored():
    async def go():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            held = []  # (writer, request) for node 42: answered too late

            async def handle(reader, writer):
                frames = FrameReader()
                try:
                    while True:
                        data = await reader.read(65536)
                        if not data:
                            return
                        for msg in map(decode_message, frames.feed(data)):
                            if msg.node == 42:
                                held.append((writer, msg))
                            else:
                                writer.write(encode_frame(ClientLookupReply(
                                    msg.cqid, msg.node, True, servers=[2]
                                )))
                finally:
                    writer.close()

            server = await asyncio.start_unix_server(handle, path=path)
            conn = HomeConnection(asyncio.get_running_loop(), ("uds", path))
            await conn.connect()
            reply = await conn.lookup(42, timeout=0.05)
            ((writer, msg),) = held
            writer.write(encode_frame(
                ClientLookupReply(msg.cqid, msg.node, True, servers=[1])
            ))
            second = await conn.lookup(43, timeout=1.0)  # read after it
            await conn.close()
            server.close()
            await server.wait_closed()
            return reply, second, conn

    reply, second, conn = asyncio.run(go())
    assert reply is None and conn.n_timeouts == 1
    assert second is not None and second.node == 43 and second.servers == [2]
    assert conn.n_replies == 1  # the late one was never counted
    assert len(conn.runtime.timers) == 0


def test_connection_lost_fails_what_waits_and_disarms():
    async def go():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            stall = lambda msg: None  # noqa: E731
            server, seen = await _start_scripted_peer(path, [stall])
            conn = HomeConnection(asyncio.get_running_loop(), ("uds", path))
            await conn.connect()
            lookups = [
                asyncio.ensure_future(conn.lookup(n, timeout=5.0))
                for n in (1, 2, 3)
            ]
            await until(lambda: len(seen) == 3)
            assert len(conn.runtime.timers) == 3
            conn.transport.abort()
            replies = await asyncio.wait_for(asyncio.gather(*lookups), 1.0)
            server.close()
            await server.wait_closed()
            return replies, conn

    replies, conn = asyncio.run(go())
    assert replies == [None, None, None]
    assert conn.n_disconnects == 3 and conn.n_timeouts == 0
    assert len(conn.runtime.timers) == 0


def test_a_cancelled_lookup_leaves_the_queue():
    async def go():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            stall = lambda msg: None  # noqa: E731
            server, seen = await _start_scripted_peer(path, [stall])
            conn = HomeConnection(asyncio.get_running_loop(), ("uds", path))
            await conn.connect()
            task = asyncio.ensure_future(conn.lookup(1, timeout=5.0))
            await until(lambda: len(seen) == 1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            state = (len(conn.runtime.timers), len(conn._pending))
            await conn.close()
            server.close()
            await server.wait_closed()
            return state

    assert asyncio.run(go()) == (0, 0)


class _Echo(asyncio.Protocol):
    """A home peer that answers every lookup at once."""

    def connection_made(self, transport):
        self.transport, self.frames = transport, FrameReader()

    def data_received(self, data):
        self.transport.write(b"".join(
            encode_frame(ClientLookupReply(m.cqid, m.node, True, servers=[0]))
            for m in map(decode_message, self.frames.feed(data))
        ))


def test_armed_timers_stay_within_the_buckets_over_a_closed_loop():
    in_flight, total = 16, 10_000

    async def go():
        loop = asyncio.get_running_loop()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            server = await loop.create_unix_server(_Echo, path=path)
            conn = HomeConnection(loop, ("uds", path))
            await conn.connect()
            wheel = conn.runtime.timers
            t0 = loop.time()
            sent = 0
            heap = buckets = 0

            async def caller():
                nonlocal sent, heap, buckets
                while sent < total:
                    sent += 1
                    reply = await conn.lookup(sent, timeout=30.0)
                    assert reply is not None and reply.node > 0
                    # asyncio's armed timers, cancelled ones included
                    heap = max(heap, len(loop._scheduled))
                    buckets = max(buckets, wheel.n_buckets)

            await asyncio.gather(*(caller() for _ in range(in_flight)))
            state = (heap, buckets, loop.time() - t0, len(wheel))
            await conn.close()
            server.close()
            await server.wait_closed()
            return state, conn

    (heap, buckets, elapsed, left), conn = asyncio.run(go())
    assert conn.n_replies == conn.n_sent >= total and conn.n_timeouts == 0
    # one asyncio timer for the runtime's heap, which holds one entry
    # per wheel bucket, one bucket per tick the run spans: not one per
    # lookup, and nothing for a cancelled lookup
    assert heap <= buckets <= elapsed / conn.runtime.timers.tick + 2
    assert left == 0


# ----------------------------------------------------------------------
# the service's deadline, and the failure sites that used to be silent
# ----------------------------------------------------------------------

class _Peer:
    def __init__(self, sid):
        self.sid, self.client_hooks = sid, {}


class _System:
    """As much of a ``LiveSystem`` as the client plane touches; queries
    vanish inside it unless the test answers them."""

    def __init__(self, loop):
        self.runtime = AsyncRuntime(loop)
        self.peers = [_Peer(0)]
        self.qid = 0

    def inject(self, sid, node):
        self.qid += 1
        return self.qid


class _Writer:
    def __init__(self):
        self.replies = []

    def is_closing(self):
        return False

    def write(self, frame):
        (payload,) = FrameReader().feed(frame)
        self.replies.append(decode_message(payload))


class _Response:
    dest, dest_map, meta_version, hops, created_at = 9, [0], 0, 2, 0.0


def test_service_deadline_fails_the_lookup_and_says_so(caplog):
    async def go():
        system = _System(asyncio.get_running_loop())
        service = LiveService(system, lookup_deadline=0.05)
        writer = _Writer()
        service.handle_client(0, ClientLookup(7, 9), writer)   # dies
        service.handle_client(0, ClientLookup(8, 9), writer)   # answered
        hooks = system.peers[0].client_hooks
        hooks.pop(("lookup", 2))(_Response())
        assert [r.cqid for r in writer.replies] == [8]
        await asyncio.sleep(0.12)
        return service, writer, hooks

    with caplog.at_level(logging.WARNING, logger="repro.runtime.async_service"):
        service, writer, hooks = asyncio.run(go())
    assert [(r.cqid, r.ok) for r in writer.replies] == [(8, True), (7, False)]
    assert (service.n_lookups, service.n_completed,
            service.n_deadline_failures) == (2, 1, 1)
    assert hooks == {}
    assert len(service.system.runtime.timers) == 0
    (record,) = caplog.records
    text = record.getMessage()
    assert "peer 0" in text and "qid=1" in text and "node 9" in text


def test_a_dial_given_up_names_the_peer_and_the_frames_lost(caplog):
    async def body(addresses):
        wire = AsyncWire(
            asyncio.get_running_loop(), addresses,
            connect_retries=2, connect_backoff=0.01,
        )
        wire.send(1, query(0, 0, 4))
        wire.send(1, query(1, 0, 4))
        await until(lambda: wire.n_lost == 2)
        await wire.close()

    with caplog.at_level(logging.WARNING, logger="repro.runtime.async_wire"):
        in_sock_dir(body)
    (record,) = caplog.records
    text = record.getMessage()
    assert "peer 1" in text and "2 dial attempts" in text
    assert "2 queued frames lost" in text


def test_a_client_lookup_with_no_client_plane_is_counted_and_logged(caplog):
    async def body(addresses):
        wire, inbox = await bare_wire(addresses, 1)  # no on_client
        _, writer = await asyncio.open_unix_connection(addresses[1][1])
        writer.write(encode_frame(ClientLookup(5, 9)))
        await until(lambda: wire.n_client_unhandled == 1)
        writer.close()
        assert inbox[1] == []
        assert wire.counters()["n_client_unhandled"] == 1
        await wire.close()

    with caplog.at_level(logging.WARNING, logger="repro.runtime.async_wire"):
        in_sock_dir(body)
    (record,) = caplog.records
    text = record.getMessage()
    assert "peer 1" in text and "cqid=5" in text and "node 9" in text


# ----------------------------------------------------------------------
# AsyncRuntime's loop rule
# ----------------------------------------------------------------------

def test_async_runtime_takes_the_running_loop():
    async def go():
        return AsyncRuntime().loop is asyncio.get_running_loop()

    assert asyncio.run(go())


def test_async_runtime_outside_a_loop_needs_one_given():
    with pytest.raises(RuntimeError, match="no running event loop"):
        AsyncRuntime()
    loop = asyncio.new_event_loop()
    try:
        assert AsyncRuntime(loop).loop is loop
    finally:
        loop.close()
