"""Lookup deadlines: one FIFO and one armed timer per service and per
home connection, instead of one armed-and-cancelled ``call_later`` per
lookup (DESIGN.md section 14.3).

What must hold: a deadline fires at its expiry, never before, and in
order; a response after the deadline is ignored; a lost connection
fails what waits; the queue stays within the in-flight count once the
lookups behind its head are answered; and no timer stays armed on an
empty queue.  Also here: the silent failure sites the live path used to
have (deadline expiry, a dial given up, a client frame with no client
plane) each log one warning, and ``AsyncRuntime``'s loop rule.
"""

import asyncio
import logging
import os
import tempfile

import pytest

from repro.net.frame import FrameReader, decode_message, encode_frame
from repro.net.message import ClientLookup, ClientLookupReply
from repro.runtime.async_client import HomeConnection
from repro.runtime.async_runtime import AsyncRuntime, DeadlineQueue
from repro.runtime.async_service import LiveService
from repro.runtime.async_wire import AsyncWire
from tests.test_live_conformance import _start_scripted_peer
from tests.test_wire_links import bare_wire, in_sock_dir, query, until


# ----------------------------------------------------------------------
# the queue alone
# ----------------------------------------------------------------------

class Waiting:
    """Keys still open, and when each one expired."""

    def __init__(self, loop):
        self.loop = loop
        self.open = set()
        self.expired = []  # (key, loop time)
        self.queue = DeadlineQueue(loop, self.open.__contains__, self.expire)

    def push(self, timeout, key):
        """Queue ``key``; a time no later than its expiry."""
        earliest = self.loop.time() + timeout
        self.open.add(key)
        self.queue.push(timeout, key)
        return earliest

    def expire(self, key):
        self.open.discard(key)
        self.expired.append((key, self.loop.time()))

    def answer(self, key):
        self.open.discard(key)
        self.queue.settle()


def test_deadlines_fire_at_their_expiry_and_in_order():
    async def go():
        w = Waiting(asyncio.get_running_loop())
        expiry = {}
        for key in "abc":
            expiry[key] = w.push(0.05, key)
            await asyncio.sleep(0.01)
        w.answer("b")
        assert w.queue.armed and len(w.queue) == 3  # b waits behind a
        await asyncio.sleep(0.12)
        return w, expiry

    w, expiry = asyncio.run(go())
    assert [key for key, _ in w.expired] == ["a", "c"]
    for key, at in w.expired:
        assert expiry[key] <= at < expiry[key] + 0.1
    assert len(w.queue) == 0 and not w.queue.armed


def test_a_shorter_timeout_behind_a_longer_one_keeps_its_own_expiry():
    async def go():
        w = Waiting(asyncio.get_running_loop())
        expiry = {"slow": w.push(0.32, "slow"), "fast": w.push(0.02, "fast"),
                  "mid": w.push(0.17, "mid")}
        await asyncio.sleep(0.45)
        return w, expiry

    w, expiry = asyncio.run(go())
    assert [key for key, _ in w.expired] == ["fast", "mid", "slow"]
    for key, at in w.expired:
        assert expiry[key] <= at < expiry[key] + 0.1


def test_answering_everything_leaves_no_timer_armed():
    async def go():
        loop = asyncio.get_running_loop()
        w = Waiting(loop)
        for key in range(5):
            w.push(5.0, key)
        for key in (3, 1, 4, 2):
            w.answer(key)
        # nothing can leave before the head does
        assert len(w.queue) == 5 and w.queue.armed
        w.answer(0)
        assert len(w.queue) == 0 and not w.queue.armed
        w.push(5.0, "next")
        assert w.queue.armed
        w.queue.clear()
        assert len(w.queue) == 0 and not w.queue.armed
        return w

    assert asyncio.run(go()).expired == []


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
    assert len(conn._deadlines) == 0 and not conn._deadlines.armed


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
            assert len(conn._deadlines) == 3 and conn._deadlines.armed
            conn.transport.abort()
            replies = await asyncio.wait_for(asyncio.gather(*lookups), 1.0)
            server.close()
            await server.wait_closed()
            return replies, conn

    replies, conn = asyncio.run(go())
    assert replies == [None, None, None]
    assert conn.n_disconnects == 3 and conn.n_timeouts == 0
    assert len(conn._deadlines) == 0 and not conn._deadlines.armed


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
            state = (len(conn._deadlines), conn._deadlines.armed,
                     len(conn._pending))
            await conn.close()
            server.close()
            await server.wait_closed()
            return state

    assert asyncio.run(go()) == (0, False, 0)


class _Echo(asyncio.Protocol):
    """A home peer that answers every lookup at once."""

    def connection_made(self, transport):
        self.transport, self.frames = transport, FrameReader()

    def data_received(self, data):
        self.transport.write(b"".join(
            encode_frame(ClientLookupReply(m.cqid, m.node, True, servers=[0]))
            for m in map(decode_message, self.frames.feed(data))
        ))


def test_queue_stays_within_the_in_flight_count_over_a_closed_loop():
    in_flight, total = 16, 10_000

    async def go():
        loop = asyncio.get_running_loop()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            server = await loop.create_unix_server(_Echo, path=path)
            conn = HomeConnection(loop, ("uds", path))
            await conn.connect()
            sent = 0
            longest = 0

            async def caller():
                nonlocal sent, longest
                while sent < total:
                    sent += 1
                    reply = await conn.lookup(sent, timeout=30.0)
                    assert reply is not None and reply.node > 0
                    longest = max(longest, len(conn._deadlines))

            await asyncio.gather(*(caller() for _ in range(in_flight)))
            state = (longest, len(conn._deadlines), conn._deadlines.armed)
            await conn.close()
            server.close()
            await server.wait_closed()
            return state, conn

    (longest, left, armed), conn = asyncio.run(go())
    assert conn.n_replies == conn.n_sent >= total and conn.n_timeouts == 0
    assert longest <= 2 * in_flight
    assert left == 0 and not armed


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
    assert len(service._deadlines) == 0 and not service._deadlines.armed
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
