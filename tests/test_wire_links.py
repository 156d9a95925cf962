"""Link state under faults: the live wire over real unix sockets.

The wire interns digest snapshots per connection (a sender's unchanged
snapshot crosses a link once, then travels as its version), so every
way a link can start, share, break and restart has to leave both ends'
tables in step -- or cost exactly one connection and a re-dial, never a
hang, a wrong snapshot, or an exception other than ``FrameError``.

Also here: the cost pin for the packed, interned wire (bytes per frame
and elision ratio on a real 4-peer cluster), and the client-side half
of a broken link -- a dropped home connection fails its in-flight
lookups at once instead of stranding them until their timeout.
"""

import asyncio
import logging
import os
import random
import tempfile
import time

from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.net.codec import DigestTable
from repro.net.frame import FrameReader, decode_message, encode_frame
from repro.net.message import (
    ClientLookupReply,
    DataReply,
    QueryMessage,
    ResponseMessage,
    TransferMessage,
)
from repro.runtime import async_wire
from repro.runtime.async_client import HomeConnection
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_service import LiveService, build_live_system
from repro.runtime.async_wire import AsyncWire, uds_addresses
from tests.test_live_conformance import _start_scripted_peer
from tests.wire_strategies import words

WORDS_A = words(1, 2, 3)
WORDS_B = words(7, 8, 9)


def query(qid, sender, version, vector=WORDS_A):
    q = QueryMessage(qid, 9, sender, 0.0)
    q.sender = sender
    q.sender_digest = (version, vector)
    return q


async def until(cond, timeout=3.0):
    """Poll ``cond`` on the running loop; fail the test if it never holds."""
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


async def bare_wire(addresses, *sids):
    """An ``AsyncWire`` whose local peers are plain inboxes."""
    wire = AsyncWire(
        asyncio.get_running_loop(), addresses, connect_backoff=0.01
    )
    inbox = {sid: [] for sid in sids}
    for sid in sids:
        wire.register(sid, inbox[sid].append)
    await wire.start_listeners()
    return wire, inbox


def in_sock_dir(body, n=3):
    """Run ``body(addresses)`` on a fresh loop over a temp socket dir."""
    async def go():
        with tempfile.TemporaryDirectory() as sock_dir:
            return await body(uds_addresses(sock_dir, n))

    return asyncio.run(go())


# ----------------------------------------------------------------------
# bare wires: what one link carries
# ----------------------------------------------------------------------

def test_full_snapshot_then_version_only_on_one_link():
    async def body(addresses):
        a, _ = await bare_wire(addresses, 0)
        b, inbox = await bare_wire(addresses, 1)
        for i in range(3):
            a.send(1, query(i, 0, 4))
        await until(lambda: len(inbox[1]) == 3)
        # every decoded message carries the identical full tuple
        assert [m.sender_digest for m in inbox[1]] == [(4, WORDS_A)] * 3
        assert (a.n_digests_full, a.n_digests_elided) == (1, 2)
        link = DigestTable()
        assert a.n_bytes_sent == sum(
            len(encode_frame(query(i, 0, 4), link)) for i in range(3)
        )
        # a mutation bumps the version: full again, exactly once
        for i in range(3, 6):
            a.send(1, query(i, 0, 5, WORDS_B))
        await until(lambda: len(inbox[1]) == 6)
        assert [m.sender_digest for m in inbox[1][3:]] == [(5, WORDS_B)] * 3
        assert (a.n_digests_full, a.n_digests_elided) == (2, 4)
        assert b.n_frame_errors == 0 and b.n_delivered == 6
        await a.close()
        await b.close()

    in_sock_dir(body)


def test_two_local_senders_share_a_link_without_crossing_tables():
    async def body(addresses):
        a, _ = await bare_wire(addresses, 0, 2)  # two senders, one wire
        b, inbox = await bare_wire(addresses, 1)
        # same version number, different words: only the sid tells them
        # apart, and a response is keyed by its resolver
        for i in range(4):
            a.send(1, query(2 * i, 0, 4, WORDS_A))
            resp = ResponseMessage(query(2 * i + 1, 2, 0), 2, [2])
            resp.sender_digest = (4, WORDS_B)
            a.send(1, resp)
        await until(lambda: len(inbox[1]) == 8)
        for m in inbox[1]:
            sender = m.sender if type(m) is QueryMessage else m.resolver
            assert m.sender_digest == (4, WORDS_A if sender == 0 else WORDS_B)
        assert (a.n_digests_full, a.n_digests_elided) == (2, 6)
        assert len(a._links) == 1  # one link carried both
        await a.close()
        await b.close()

    in_sock_dir(body)


def test_restarted_listener_gets_a_full_snapshot_after_the_redial():
    async def body(addresses):
        a, _ = await bare_wire(addresses, 0)
        b, inbox = await bare_wire(addresses, 1)
        a.send(1, query(0, 0, 4))
        a.send(1, query(1, 0, 4))
        await until(lambda: len(inbox[1]) == 2)
        await b.close()  # the listener and its half of the table go
        await until(lambda: 1 not in a._links)  # ...and so does ours
        b2, inbox2 = await bare_wire(addresses, 1)
        a.send(1, query(2, 0, 4))  # same version as before the restart
        a.send(1, query(3, 0, 4))
        await until(lambda: len(inbox2[1]) == 2)
        # b2's table started empty, so decoding these at all proves the
        # first one after the re-dial was full
        assert [m.sender_digest for m in inbox2[1]] == [(4, WORDS_A)] * 2
        assert b2.n_frame_errors == 0
        assert (a.n_digests_full, a.n_digests_elided) == (2, 2)
        assert a.n_lost == 0
        await a.close()
        await b2.close()

    in_sock_dir(body)


def test_frames_queued_before_the_listener_exists_arrive_in_order():
    async def body(addresses):
        a, _ = await bare_wire(addresses, 0)
        for i in range(3):  # nobody listens yet: outbox + dial retries
            a.send(1, query(i, 0, 4))
        await asyncio.sleep(0.03)
        b, inbox = await bare_wire(addresses, 1)
        await until(lambda: len(inbox[1]) == 3)
        assert [m.qid for m in inbox[1]] == [0, 1, 2]
        assert (a.n_digests_full, a.n_digests_elided) == (1, 2)
        await a.close()
        await b.close()

    in_sock_dir(body)


def test_connections_sharing_the_receive_buffer_keep_their_streams_apart():
    """Every inbound connection of a wire reads into one buffer; frames
    far larger than it, interleaved with another connection's small
    ones, must come out whole and in order."""
    async def body(addresses):
        a, _ = await bare_wire(addresses, 0)
        c, _ = await bare_wire(addresses, 2)
        b, inbox = await bare_wire(addresses, 1)
        big = []
        for i in range(4):
            reply = DataReply(i, 7, 0)
            reply.data = bytes([i]) * 300_000  # ~5 reads each
            big.append(reply)
        for i, reply in enumerate(big):
            a.send(1, reply, control=True)
            c.send(1, query(100 + i, 2, 4))
        await until(lambda: len(inbox[1]) == 8)
        got_big = [m for m in inbox[1] if type(m) is DataReply]
        got_small = [m for m in inbox[1] if type(m) is QueryMessage]
        assert [(m.rid, m.data) for m in got_big] == [
            (m.rid, m.data) for m in big
        ]
        assert [m.qid for m in got_small] == [100, 101, 102, 103]
        assert all(m.sender_digest == (4, WORDS_A) for m in got_small)
        assert b.n_frame_errors == 0
        for wire in (a, b, c):
            await wire.close()

    in_sock_dir(body)


def test_unreachable_peer_loses_its_outbox_and_its_table():
    async def body(addresses):
        wire = AsyncWire(
            asyncio.get_running_loop(), addresses,
            connect_retries=2, connect_backoff=0.01,
        )
        wire.send(1, query(0, 0, 4))
        wire.send(1, query(1, 0, 4))
        await until(lambda: wire.n_lost == 2)
        assert 1 not in wire._links
        # the counts of a link that is gone are kept
        assert (wire.n_digests_full, wire.n_digests_elided) == (1, 1)
        await wire.close()

    in_sock_dir(body)


def test_out_of_step_marker_costs_one_connection(caplog):
    async def body(addresses):
        a, _ = await bare_wire(addresses, 0)
        b, inbox = await bare_wire(addresses, 1)
        # a sender whose table is ahead of the link: the second frame of
        # a pair, sent alone, is a version-only marker b never saw
        ahead = DigestTable()
        encode_frame(query(0, 0, 4), ahead)
        marker = encode_frame(query(1, 0, 4), ahead)
        reader, writer = await asyncio.open_unix_connection(addresses[1][1])
        writer.write(marker + encode_frame(query(2, 0, 4)))
        assert await asyncio.wait_for(reader.read(), 2.0) == b""  # closed
        writer.close()
        assert b.n_frame_errors == 1
        assert inbox[1] == []  # nothing after the bad frame was trusted
        # the cluster keeps answering: a healthy link is unaffected
        a.send(1, query(3, 0, 4))
        await until(lambda: len(inbox[1]) == 1)
        assert inbox[1][0].sender_digest == (4, WORDS_A)
        assert b.n_frame_errors == 1
        await a.close()
        await b.close()

    with caplog.at_level(logging.WARNING, logger="repro.runtime.async_wire"):
        in_sock_dir(body)
    (record,) = caplog.records
    assert "peer 1" in record.getMessage()
    assert "version-only digest 4 for sender 0" in record.getMessage()


def test_garbage_on_a_listener_is_a_counted_frame_error(caplog):
    async def body(addresses):
        b, inbox = await bare_wire(addresses, 1)
        for junk in (b"\x00\x00\x00\x03\xee\x00\x00",  # unknown type id
                     b"\xff\xff\xff\xff",              # over MAX_FRAME
                     encode_frame(query(0, 0, 4))[:-2] + b"\x00\x00\x00"):
            reader, writer = await asyncio.open_unix_connection(
                addresses[1][1]
            )
            writer.write(junk + encode_frame(query(1, 0, 4)))
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            writer.close()
        assert b.n_frame_errors == 3 and inbox[1] == []
        await b.close()

    with caplog.at_level(logging.WARNING, logger="repro.runtime.async_wire"):
        in_sock_dir(body)
    assert len(caplog.records) == 3


# ----------------------------------------------------------------------
# real peers: version bumps, bounded directories, cost
# ----------------------------------------------------------------------

N_SERVERS = 4
LEVELS = 6


class Cluster:
    """A live cluster (4 peers) over UDS plus one client per peer."""

    def __init__(self, sock_dir, n_servers=N_SERVERS, **cfg):
        self.sock_dir, self.n_servers, self.cfg = sock_dir, n_servers, cfg

    async def __aenter__(self):
        loop = asyncio.get_running_loop()
        cfg = SystemConfig.replicated(
            n_servers=self.n_servers, seed=7, cache_slots=8, **self.cfg
        )
        self.ns = balanced_tree(levels=LEVELS)
        addresses = self.addresses = uds_addresses(
            self.sock_dir, self.n_servers
        )
        self.rt = AsyncRuntime(loop)
        self.wire = AsyncWire(loop, addresses)
        self.system = build_live_system(self.ns, cfg, self.rt, self.wire)
        LiveService(self.system, lookup_deadline=10.0).attach(self.wire)
        await self.wire.start_listeners()
        self.conns = [
            HomeConnection(loop, addresses[sid])
            for sid in range(self.n_servers)
        ]
        for conn in self.conns:
            await conn.connect()
        return self

    async def __aexit__(self, *exc):
        for conn in self.conns:
            await conn.close()
        await self.wire.close()

    async def lookup(self, src, node, settle=0.0):
        reply = await self.conns[src].lookup(node, timeout=10.0)
        assert reply is not None and reply.ok and reply.node == node
        if settle:
            # let trailing control frames land so every peer sees the
            # same message order run after run
            await asyncio.sleep(settle)
        return reply

    def tap_digests(self):
        """Record ``(dest, sender sid, version)`` of every digest sent."""
        carried = []
        send = self.wire.send

        def tapped(dest, msg, control=False):
            snap = getattr(msg, "sender_digest", None)
            if snap is not None:
                sid = msg.sender if type(msg) is QueryMessage else msg.resolver
                carried.append((dest, sid, snap[0]))
            send(dest, msg, control=control)

        self.wire.send = tapped
        return carried


def ops(n, seed=1234):
    rng = random.Random(seed)
    n_nodes = 2 ** (LEVELS + 1) - 1
    return [
        (rng.randrange(N_SERVERS), rng.randrange(1, n_nodes))
        for _ in range(n)
    ]


def test_version_bump_sends_the_snapshot_in_full_exactly_once_per_link():
    async def go():
        with tempfile.TemporaryDirectory() as sock_dir:
            async with Cluster(sock_dir, service_mean=1e-4) as c:
                carried = c.tap_digests()
                for src, node in ops(40):
                    await c.lookup(src, node)
                # install a replica on peer 1: its digest mutates
                before = c.system.peers[1].digest.version
                node = sorted(c.system.peers[0].owned)[0]
                payload = c.system.peers[0].store.build_payload(node)
                c.rt.send(1, TransferMessage(900, 0, [payload]))
                await until(lambda: c.system.peers[1].hosts(node))
                after = c.system.peers[1].digest.version
                assert after > before
                for src, node in ops(60, seed=99):
                    await c.lookup(src, node)
                return carried, after, c.wire.counters()

    carried, after, counters = asyncio.run(go())
    # a digest goes out in full once per (link, sender, version) and as
    # its version every other time -- old version and new alike
    assert counters["n_digests_full"] == len(set(carried))
    assert counters["n_digests_elided"] == len(carried) - len(set(carried))
    bumped = [c for c in carried if c[1] == 1 and c[2] == after]
    assert len(bumped) > len(set(bumped)) > 0  # re-sent full, then elided
    assert counters["n_frame_errors"] == 0


def test_wrong_length_digest_frame_leaves_the_cluster_answering():
    """One well-formed frame whose digest vector is not the fleet's
    length: the receiving peer refuses the snapshot, serves the query
    that carried it, and goes on serving (on the parent of issue 19 the
    vector was stored and the first decision to probe it raised inside
    ``_finish_service``: that peer never answered again)."""
    async def go():
        with tempfile.TemporaryDirectory() as sock_dir:
            async with Cluster(sock_dir, n_servers=3,
                               service_mean=1e-4) as c:
                victim = c.system.peers[1]
                n_nodes = 2 ** (LEVELS + 1) - 1
                remote = [v for v in range(1, n_nodes) if not victim.hosts(v)]
                bad = query(10**6, 0, 10**9, words(0))
                bad.dest = remote[0]
                _, writer = await asyncio.open_unix_connection(
                    c.addresses[1][1]
                )
                writer.write(encode_frame(bad))
                await until(lambda: victim.n_processed == 1)
                for node in remote[1:31]:
                    for src in range(3):
                        await c.lookup(src, node)
                writer.close()
                return (
                    [p.digest_dir.n_rejected for p in c.system.peers],
                    victim.digest_dir.get(0), victim.in_service,
                    c.wire.n_frame_errors,
                )

    rejected, held, in_service, frame_errors = asyncio.run(go())
    assert rejected == [0, 1, 0] and not in_service and frame_errors == 0
    # what peer 1 holds for peer 0 came from peer 0, at a real version
    assert held is None or held[0] < 10**9


def _directories_after_trace(sock_dir):
    async def go():
        async with Cluster(sock_dir, service_mean=0.002,
                           digest_dir_max=1) as c:
            for src, node in ops(24):
                await c.lookup(src, node, settle=0.01)
            return [
                {s: p.digest_dir.get(s) for s in range(N_SERVERS)}
                for p in c.system.peers
            ], c.wire.n_digests_elided

    return asyncio.run(go())


def test_bounded_directory_relearns_evicted_peers_from_versions(monkeypatch):
    """``digest_dir_max=1``: every new sender evicts the last one, so a
    directory keeps re-learning peers from messages whose digest
    travelled as a bare version.  It must end where a wire that always
    sends full snapshots ends -- the reason the link table lives in the
    wire and not in ``DigestDirectory``."""
    with tempfile.TemporaryDirectory() as sock_dir:
        interned, n_elided = _directories_after_trace(sock_dir)
    assert n_elided > 0
    monkeypatch.setattr(
        async_wire, "encode_frame", lambda msg, sent: encode_frame(msg)
    )
    monkeypatch.setattr(
        async_wire, "decode_message", lambda payload, seen: decode_message(payload)
    )
    with tempfile.TemporaryDirectory() as sock_dir:
        stateless, none_elided = _directories_after_trace(sock_dir)
    assert none_elided == 0
    assert interned == stateless
    assert all(
        sum(snap is not None for snap in d.values()) == 1 for d in interned
    )


def test_cost_of_a_peer_plane_frame():
    """Pin the cost, not just the result: packed bodies with interned
    digests keep a peer-plane frame under 200 bytes on average, and
    more than nine digests in ten travel as a version."""
    async def go():
        with tempfile.TemporaryDirectory() as sock_dir:
            async with Cluster(sock_dir, service_mean=1e-4) as c:
                for src, node in ops(300):
                    await c.lookup(src, node)
                return c.wire.counters()

    w = asyncio.run(go())
    frames = w["n_sent"] + w["n_control_sent"] - w["n_lost"]
    assert frames > 300 and w["n_frame_errors"] == 0
    assert w["n_bytes_sent"] / frames < 200
    digests = w["n_digests_elided"] + w["n_digests_full"]
    assert w["n_digests_elided"] / digests > 0.9


# ----------------------------------------------------------------------
# the client's half: a dropped home connection
# ----------------------------------------------------------------------

def test_reply_larger_than_the_client_read_buffer_arrives_whole():
    servers = list(range(20_000))  # an 80 KB reply, read 16 KiB at a time

    async def go():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            server, _ = await _start_scripted_peer(path, [
                lambda msg: ClientLookupReply(
                    msg.cqid, msg.node, True, servers=servers
                )
            ])
            conn = HomeConnection(asyncio.get_running_loop(), ("uds", path))
            await conn.connect()
            replies = [await conn.lookup(n, timeout=5.0) for n in (1, 2)]
            await conn.close()
            server.close()
            await server.wait_closed()
            return replies

    replies = asyncio.run(go())
    assert [r.node for r in replies] == [1, 2]
    assert all(r.ok and r.servers == servers for r in replies)


def test_dropped_home_connection_fails_its_lookups_at_once():
    async def go():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            seen = []

            async def handle(reader, writer):
                frames = FrameReader()
                while not seen:  # read one request, then hang up
                    for payload in frames.feed(await reader.read(65536)):
                        seen.append(decode_message(payload))
                writer.close()

            server = await asyncio.start_unix_server(handle, path=path)
            conn = HomeConnection(asyncio.get_running_loop(), ("uds", path))
            await conn.connect()
            t0 = time.monotonic()
            reply = await conn.lookup(42, timeout=5.0, retries=0)
            took = time.monotonic() - t0
            # the connection is known dead now: no send, no wait
            again = await conn.lookup(43, timeout=5.0, retries=1)
            await conn.close()
            server.close()
            await server.wait_closed()
            return reply, again, took, seen, conn

    reply, again, took, seen, conn = asyncio.run(go())
    assert reply is None and again is None
    assert took < 0.5, f"lookup waited {took:.2f}s against a dead socket"
    assert len(seen) == 1 and seen[0].node == 42
    assert conn.n_sent == 1 and conn.n_timeouts == 0
    assert conn.n_disconnects == 3  # one in flight, two refused unsent
