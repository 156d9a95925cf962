"""Sim-vs-live conformance: the same scripted trace through
:class:`~repro.runtime.sim_runtime.SimRuntime` and
:class:`~repro.runtime.async_runtime.AsyncRuntime` (UDS, one process)
must produce identical lookup outcomes, hop counts, and replica
placements.

The trace is strictly sequential -- each lookup completes (and the
wire settles) before the next is issued -- so every peer sees the same
message order in both modes and draws from its RNG streams in the same
sequence.  Maintenance ticks stay off: load windows measure *wall*
time under AsyncRuntime, which is exactly the part that legitimately
differs between modes (DESIGN.md section 14).

Also here: client robustness against a stalled peer -- per-attempt
timeouts, reissue-on-timeout, and ``ok=False`` deadline replies
consuming an attempt.
"""

import asyncio
import os
import random
import tempfile

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.net.frame import FrameReader, decode_message, encode_frame
from repro.net.message import ClientLookupReply, TransferMessage
from repro.runtime.async_client import HomeConnection
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_service import LiveService, build_live_system
from repro.runtime.async_wire import AsyncWire, uds_addresses
from repro.sim.stats import SystemStats

LEVELS = 6
N_SERVERS = 4
SEED = 7
N_OPS = 30


def make_cfg():
    # fast service times keep the live (real-time) half under a second
    return SystemConfig.replicated(
        n_servers=N_SERVERS, seed=SEED, cache_slots=8, service_mean=0.002
    )


def make_ops():
    rng = random.Random(1234)
    n_nodes = 2 ** (LEVELS + 1) - 1
    return [
        (rng.randrange(N_SERVERS), rng.randrange(1, n_nodes))
        for _ in range(N_OPS)
    ]


def pick_transfers(system):
    """Scripted replica installs: (source sid, target sid, node)."""
    owned0 = sorted(system.peers[0].owned)
    owned1 = sorted(system.peers[1].owned)
    return [
        (0, 1, owned0[0]),
        (0, 2, owned0[1]),
        (1, 3, owned1[0]),
    ]


def followup_ops(transfers):
    """Post-transfer lookups for the shipped nodes, from every server:
    resolution must now see the replicas identically in both modes."""
    return [(s, node) for _, _, node in transfers for s in range(N_SERVERS)]


def outcome(reply_or_resp, servers):
    return (reply_or_resp, tuple(servers))


# ----------------------------------------------------------------------
# the two trace executors
# ----------------------------------------------------------------------

def sim_trace():
    ns = balanced_tree(levels=LEVELS)
    system = build_system(ns, make_cfg())
    lookups = []

    def do_lookup(src, dest):
        captured = []
        qid = system.inject(src, dest)
        system.peers[src].client_hooks[("lookup", qid)] = captured.append
        system.engine.run()  # drain: the trace is sequential
        assert captured, f"sim lookup ({src}->{dest}) never completed"
        r = captured[0]
        lookups.append((r.dest, r.hops, tuple(r.dest_map), r.meta_version))

    ops = make_ops()
    for src, dest in ops:
        do_lookup(src, dest)

    placements = []
    transfers = pick_transfers(system)
    for i, (src, dst, node) in enumerate(transfers):
        payload = system.peers[src].store.build_payload(node)
        assert payload is not None
        system.runtime.send(dst, TransferMessage(900 + i, src, [payload]))
        system.engine.run()
        placements.append(tuple(sorted(system.hosts_of(node))))

    for src, dest in followup_ops(transfers):
        do_lookup(src, dest)
    return lookups, placements


async def _live_trace():
    ns = balanced_tree(levels=LEVELS)
    loop = asyncio.get_running_loop()
    lookups = []
    with tempfile.TemporaryDirectory() as sock_dir:
        addresses = uds_addresses(sock_dir, N_SERVERS)
        rt = AsyncRuntime(loop)
        wire = AsyncWire(loop, addresses)
        system = build_live_system(ns, make_cfg(), rt, wire)
        LiveService(system, lookup_deadline=10.0).attach(wire)
        await wire.start_listeners()
        conns = {}

        async def do_lookup(src, dest):
            conn = conns.get(src)
            if conn is None:
                conn = HomeConnection(loop, addresses[src])
                await conn.connect()
                conns[src] = conn
            r = await conn.lookup(dest, timeout=10.0)
            assert r is not None and r.ok, f"live lookup ({src}->{dest}) failed"
            lookups.append((r.node, r.hops, tuple(r.servers), r.meta_version))
            # let trailing control frames (adverts, acks) land before
            # the next op so per-peer message order matches the sim
            await asyncio.sleep(0.01)

        ops = make_ops()
        for src, dest in ops:
            await do_lookup(src, dest)

        placements = []
        transfers = pick_transfers(system)
        for i, (src, dst, node) in enumerate(transfers):
            payload = system.peers[src].store.build_payload(node)
            assert payload is not None
            rt.send(dst, TransferMessage(900 + i, src, [payload]))
            await asyncio.sleep(0.05)
            placements.append(tuple(sorted(system.hosts_of(node))))

        for src, dest in followup_ops(transfers):
            await do_lookup(src, dest)

        for conn in conns.values():
            await conn.close()
        await wire.close()
    return lookups, placements, wire.n_digests_elided


# ----------------------------------------------------------------------
# conformance
# ----------------------------------------------------------------------

def test_sim_and_live_traces_agree():
    sim_lookups, sim_placements = sim_trace()
    live_lookups, live_placements, n_elided = asyncio.run(_live_trace())

    assert len(sim_lookups) == len(live_lookups)
    for i, (s, l) in enumerate(zip(sim_lookups, live_lookups)):
        assert s == l, (
            f"op {i}: sim (dest, hops, map, ver) = {s} but live = {l}"
        )
    assert sim_placements == live_placements
    # the agreement above must hold *with* digests travelling as
    # versions; a trace that stopped exercising interning proves less
    assert n_elided > 0


def test_sim_trace_is_self_consistent():
    # the conformance anchor must itself be reproducible
    assert sim_trace() == sim_trace()


# ----------------------------------------------------------------------
# one maintenance schedule
# ----------------------------------------------------------------------

class CountingStats(SystemStats):
    """Counts ``sample_load`` calls."""

    def __init__(self, max_depth):
        super().__init__(max_depth)
        self.n_samples = 0

    def sample_load(self, now, load):
        self.n_samples += 1
        super().sample_load(now, load)


def test_live_and_sim_sample_loads_at_the_same_rate():
    """Both runtimes run one ``_tick_windows``: a load sample every
    ``sample_loads_every``, not every ``load_window`` roll.  The config
    is the default's 1:2 ratio at an eighth of the scale (binary
    fractions, so the simulator's tick times are exact), the live half
    takes 0.78 s, and the run ends between two ticks."""
    cfg = make_cfg().replace(load_window=1 / 16, sample_loads_every=1 / 8)
    duration = 0.78
    ns = balanced_tree(levels=LEVELS)

    sim = build_system(ns, cfg, stats=CountingStats(ns.max_depth))
    sim.run_until(duration)

    async def live():
        with tempfile.TemporaryDirectory() as sock_dir:
            loop = asyncio.get_running_loop()
            wire = AsyncWire(loop, uds_addresses(sock_dir, N_SERVERS))
            system = build_live_system(
                ns, cfg, AsyncRuntime(loop), wire,
                stats=CountingStats(ns.max_depth),
            )
            system.start_maintenance()
            await asyncio.sleep(duration)
            await wire.close()
        return system.stats.n_samples

    n_live = asyncio.run(live())
    assert sim.stats.n_samples == 6 * N_SERVERS  # at 1/8, 2/8, ..., 6/8
    # a late tick may slip past the end: one sampling round of slack
    assert sim.stats.n_samples - N_SERVERS <= n_live <= sim.stats.n_samples


# ----------------------------------------------------------------------
# client robustness: stalled peers
# ----------------------------------------------------------------------

async def _start_scripted_peer(path, script):
    """A fake peer listener whose i-th request is answered by
    ``script[i](msg)`` (None = stall: never answer)."""
    seen = []

    async def handle(reader, writer):
        frames = FrameReader()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for payload in frames.feed(data):
                    msg = decode_message(payload)
                    i = len(seen)
                    seen.append(msg)
                    fn = script[min(i, len(script) - 1)]
                    reply = fn(msg)
                    if reply is not None:
                        writer.write(encode_frame(reply))
        finally:
            # the accepted socket is the handler's to close, on EOF and
            # when the test's loop cancels a stalled handler alike
            writer.close()

    server = await asyncio.start_unix_server(handle, path=path)
    return server, seen


def _scripted_lookup(script, timeout, retries):
    async def go():
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "peer.sock")
            server, seen = await _start_scripted_peer(path, script)
            conn = HomeConnection(asyncio.get_running_loop(), ("uds", path))
            await conn.connect()
            reply = await conn.lookup(42, timeout, retries)
            await conn.close()
            server.close()
            await server.wait_closed()
            return reply, seen, conn

    return asyncio.run(go())


def test_lookup_times_out_against_stalled_peer():
    stall = lambda msg: None  # noqa: E731
    reply, seen, conn = _scripted_lookup([stall], timeout=0.05, retries=2)
    assert reply is None
    assert len(seen) == 3  # initial attempt + 2 reissues
    assert conn.n_timeouts == 3 and conn.n_sent == 3
    # each reissue is a fresh correlation id: stale replies can't match
    assert len({m.cqid for m in seen}) == 3


def test_retry_masks_a_stalled_first_attempt():
    stall = lambda msg: None  # noqa: E731
    ok = lambda msg: ClientLookupReply(  # noqa: E731
        msg.cqid, msg.node, True, servers=[1], hops=2
    )
    reply, seen, conn = _scripted_lookup([stall, ok], timeout=0.1, retries=1)
    assert reply is not None and reply.ok
    assert reply.hops == 2 and reply.servers == [1]
    assert len(seen) == 2
    assert conn.n_timeouts == 1 and conn.n_replies == 1


def test_deadline_failure_consumes_an_attempt():
    failed = lambda msg: ClientLookupReply(msg.cqid, msg.node, False)  # noqa: E731
    ok = lambda msg: ClientLookupReply(  # noqa: E731
        msg.cqid, msg.node, True, servers=[0]
    )
    reply, seen, conn = _scripted_lookup([failed, ok], timeout=1.0, retries=1)
    assert reply is not None and reply.ok
    assert len(seen) == 2  # the ok=False reply triggered one reissue
    assert conn.n_timeouts == 0 and conn.n_replies == 2
