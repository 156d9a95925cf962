"""The NullSink micro-benchmark: events/sec of the simulation hot path.

Three fixed-seed scenarios, each reporting *simulated message events
per second of wall time* (collection disabled via the NullSink wherever
a system is involved, so the numbers track the message pipeline itself,
not bookkeeping).  The numerator is the number of transport messages
the scenario moves -- a fixed, engine-independent work count (the
workloads are deterministic), so the rate is comparable across
simulator internals: batching deliveries into fewer engine events must
show up as an improvement, not as an accounting artifact.  Raw engine
dispatches and wall time are reported alongside for transparency.

* ``transport_chain`` -- raw engine+transport throughput: no-op
  endpoints forwarding message chains, no servers involved.  Measures
  the per-message scheduling/delivery cost (the delivery ring vs a
  per-message heap entry).
* ``end_to_end`` -- a short workload-driven burst on a small system
  (the same shape as ``benchmarks/test_bench_micro.py``'s NullSink
  case): the floor cost of the full server pipeline.
* ``client_load`` -- a client-driven run with lookup timeouts armed
  for every lookup: exercises the timeout path (timer-wheel vs dead
  heap entries) together with transport and routing.
* ``routing_decide_small`` / ``routing_decide_large`` -- the routing
  decision in isolation: ``decide()`` over a fixed random destination
  stream against a peer with small (16 replicas / 16 cache slots) and
  large (1,500 replicas / 32 cache slots) local state.  The hosted
  search is an ancestor-index walk, O(depth) whatever the replica
  count -- the large case gates that; the cached search is a pruned
  scan, linear in cache slots, so both cases keep a paper-sized cache
  (the retired 2,048-slot point is on record in ``BENCH_micro.json``'s
  notes).
* ``shard_window`` -- the ``end_to_end`` workload on the 2-shard
  windowed coordinator (inline backend, so the number isolates the
  windowed protocol's overhead: barriers, egress exchange, stats-log
  replay -- not multiprocessing).  Gates the sharded run loop's
  single-core cost against serial.
* ``shard_egress_codec`` -- ``shard_window`` with the packed
  cross-shard codec forced on (still inline): isolates the per-barrier
  encode/decode cost of the wire format the process backend uses.
* ``shard_multicore`` -- the same workload on the 2-shard *process*
  backend: shared-memory arenas, packed pipe frames, real worker
  processes.  On one core it pays for parallelism it cannot use; the
  measured 2-CPU serial-vs-sharded numbers are in DESIGN.md 12.3.
* ``serve_loopback`` -- live mode end to end: a 4-peer UDS cluster in
  this process, a fixed batch of pipelined client lookups, rate in
  completed lookups per wall second.  Gates the asyncio runtime, the
  frame codec, and the wire (``repro.runtime``) the way the scenarios
  above gate the simulator.

The composite ``headline`` is the geometric mean of the *simulator*
scenario rates; ``headline_live`` covers the live (asyncio) scenarios.
They are gated separately because they move for unrelated reasons -- a
socket-stack change cannot speed up the simulator and vice versa.

Usage::

    python -m repro.experiments.bench_micro                # print JSON
    python -m repro.experiments.bench_micro --out out.json
    python -m repro.experiments.bench_micro --check BENCH_micro.json

Each scenario also reports ``mem_bytes``: the deep size
(:func:`repro.sim.memsize.deep_sizeof`) of the live simulation state
once the scenario finishes -- the number the arena-backed namespace and
lean server structs are accountable to.

``--check`` compares the current run against the committed baseline's
``after`` numbers and exits non-zero when any scenario (or the
headline) regresses by more than the tolerance (default 20%, override
with ``REPRO_BENCH_TOLERANCE``): an ``events_per_sec`` drop or a
``mem_bytes`` growth beyond the tolerance both fail.  CI runs exactly
this.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from typing import Callable, Dict, List

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.sim.engine import Engine
from repro.sim.memsize import deep_sizeof
from repro.sim.rng import exponential
from repro.sim.stats import NullSink

# det: ok(env-read) -- bench-harness knobs (repeat count, regression
# tolerance); they shape the measurement, never a run fingerprint
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
# det: ok(env-read) -- same bench-harness knob family as REPEATS above
TOLERANCE = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.20"))


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def bench_transport_chain() -> Dict[str, float]:
    """Engine+transport only: 1,200 chains of 50 no-op forwards."""
    from repro.net.transport import Transport

    eng = Engine()
    tr = Transport(eng, net_delay=0.025)
    n_endpoints = 64

    def make_handler(sid: int) -> Callable:
        def handler(msg: List[int]) -> None:
            if msg[0] > 0:
                msg[0] -= 1
                msg[1] = (msg[1] * 131 + sid) % n_endpoints
                tr.send(msg[1], msg)
        return handler

    for sid in range(n_endpoints):
        tr.register(sid, make_handler(sid))
    # stagger chain starts so deliveries stay in flight throughout
    for i in range(1200):
        eng.schedule(0.001 * i, tr.send, i % n_endpoints, [50, i])
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return {"events": tr.n_sent, "engine_events": eng.n_dispatched,
            "wall_s": wall, "events_per_sec": tr.n_sent / wall,
            "mem_bytes": deep_sizeof((eng, tr))}


def bench_end_to_end() -> Dict[str, float]:
    """A short NullSink workload burst (the full server pipeline)."""
    from repro.workload.arrivals import WorkloadDriver
    from repro.workload.streams import uzipf_stream

    ns = balanced_tree(levels=8)
    cfg = SystemConfig.replicated(n_servers=16, seed=9, cache_slots=16)
    system = build_system(ns, cfg, stats=NullSink())
    spec = uzipf_stream(rate=400.0, duration=4.0, alpha=1.0, seed=9)
    driver = WorkloadDriver(system, spec)
    t0 = time.perf_counter()
    driver.run()
    wall = time.perf_counter() - t0
    msgs = system.transport.n_sent + system.transport.n_control_sent
    return {"events": msgs, "engine_events": system.engine.n_dispatched,
            "wall_s": wall, "events_per_sec": msgs / wall,
            "mem_bytes": deep_sizeof(system)}


def bench_client_load() -> Dict[str, float]:
    """Client-driven lookups with a timeout armed per lookup."""
    from repro.client.client import TerraDirClient

    ns = balanced_tree(levels=10)
    cfg = SystemConfig.replicated(n_servers=64, seed=7, cache_slots=16)
    system = build_system(ns, cfg, stats=NullSink())
    eng = system.engine
    clients = [TerraDirClient(system, i % 64) for i in range(64)]
    rng = random.Random(11)
    rate, n = 3000.0, len(ns)

    def arrival() -> None:
        clients[rng.randrange(64)].lookup_node(rng.randrange(n))
        eng.schedule(eng.now + exponential(rng, 1.0 / rate), arrival)

    eng.schedule(0.001, arrival)
    system.start_maintenance()
    t0 = time.perf_counter()
    eng.run(until=20.0)
    wall = time.perf_counter() - t0
    msgs = system.transport.n_sent + system.transport.n_control_sent
    return {"events": msgs, "engine_events": eng.n_dispatched,
            "wall_s": wall, "events_per_sec": msgs / wall,
            "mem_bytes": deep_sizeof(system)}


def _routing_peer(levels: int, n_servers: int, n_replicas: int,
                  cache_slots: int, seed: int):
    """A peer with a controlled amount of hosted + cached routing state.

    Replicas are installed through the real replica-store path (so
    maps, pins, digests, and the ancestor index stay coherent) and the
    cache is filled to capacity with true owner mappings.
    """
    ns = balanced_tree(levels=levels)
    cfg = SystemConfig.replicated(
        n_servers=n_servers, seed=seed, cache_slots=cache_slots
    )
    system = build_system(ns, cfg, stats=NullSink())
    peer = system.peers[0]
    rng = random.Random(seed + 1)
    candidates = [v for v in range(len(ns)) if not peer.hosts(v)]
    rng.shuffle(candidates)
    installed = 0
    for v in candidates:
        if installed >= n_replicas:
            break
        payload = system.peers[system.owner[v]].build_replica_payload(v)
        if payload is None:
            continue
        peer.store.install(payload, 0.0)
        installed += 1
    for v in candidates[-cache_slots:]:
        if not peer.hosts(v):
            peer.cache.put(v, [system.owner[v]])
    # a handful of observed digests so the shortcut path is exercised
    for s in range(1, min(n_servers, 9)):
        peer.digest_dir.observe(s, system.peers[s].digest.snapshot())
    return system, peer


def _bench_routing_decide(
    levels: int, n_replicas: int, cache_slots: int, n_queries: int
) -> Dict[str, float]:
    from repro.core.routing import decide

    system, peer = _routing_peer(
        levels=levels, n_servers=16, n_replicas=n_replicas,
        cache_slots=cache_slots, seed=13,
    )
    rng = random.Random(17)
    n = len(system.ns)
    dests = [rng.randrange(n) for _ in range(n_queries)]
    t0 = time.perf_counter()
    for dest in dests:
        decide(peer, dest)
    wall = time.perf_counter() - t0
    return {"events": n_queries, "engine_events": 0,
            "wall_s": wall, "events_per_sec": n_queries / wall,
            "mem_bytes": deep_sizeof(system)}


def bench_routing_decide_small() -> Dict[str, float]:
    """decide() against small local state (16 replicas, 16 cache slots)."""
    return _bench_routing_decide(
        levels=8, n_replicas=16, cache_slots=16, n_queries=20000
    )


def bench_routing_decide_large() -> Dict[str, float]:
    """decide() against large hosted state (1,500 replicas, 32 slots)."""
    return _bench_routing_decide(
        levels=12, n_replicas=1500, cache_slots=32, n_queries=1500
    )


def bench_shard_window() -> Dict[str, float]:
    """The ``end_to_end`` workload under the 2-shard windowed loop.

    Inline backend on purpose: wall time then measures what sharding
    *adds* on one core (shard construction, window barriers, egress
    merge, event-log replay), which is the overhead the process
    backend has to amortise.
    """
    from repro.sim.shard import WindowedCoordinator
    from repro.workload.streams import uzipf_stream

    ns = balanced_tree(levels=8)
    cfg = SystemConfig.replicated(n_servers=16, seed=9, cache_slots=16)
    spec = uzipf_stream(rate=400.0, duration=4.0, alpha=1.0, seed=9)
    coord = WindowedCoordinator(ns, cfg, spec, 2, backend="inline")
    t0 = time.perf_counter()
    run = coord.run(spec.duration + 5.0)
    wall = time.perf_counter() - t0
    msgs = run.transport.n_sent + run.transport.n_control_sent
    return {"events": msgs, "engine_events": run.engine.n_dispatched,
            "wall_s": wall, "events_per_sec": msgs / wall,
            "mem_bytes": deep_sizeof(run)}


def bench_serve_loopback() -> Dict[str, float]:
    """Live-mode loopback: lookups through the full asyncio stack.

    A 4-peer UDS cluster hosted in-process, driven with a fixed batch
    of pipelined client lookups.  The rate is *completed lookups per
    wall second* end to end -- framing, packed decode, socket
    round-trips, the peer pipeline, and the reply path -- so codec or
    wire regressions show up here and nowhere else.  Service means are
    tiny: the measurement targets the stack, not simulated queueing.
    """
    import asyncio
    import tempfile

    from repro.runtime.async_client import HomeConnection
    from repro.runtime.async_runtime import AsyncRuntime
    from repro.runtime.async_service import LiveService, build_live_system
    from repro.runtime.async_wire import AsyncWire, uds_addresses

    n_servers, n_lookups, pipeline_depth = 4, 600, 32
    ns = balanced_tree(levels=8)
    # deep queues: the fixed batch must complete without sheds so the
    # rate always divides the same work count
    cfg = SystemConfig.replicated(
        n_servers=n_servers, seed=9, cache_slots=16, service_mean=1e-4,
        queue_size=256,
    )
    rng = random.Random(21)
    dests = [rng.randrange(1, len(ns)) for _ in range(n_lookups)]
    holder: Dict[str, object] = {}

    async def drive() -> float:
        loop = asyncio.get_running_loop()
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sock_dir:
            addresses = uds_addresses(sock_dir, n_servers)
            rt = AsyncRuntime(loop)
            wire = AsyncWire(loop, addresses)
            system = build_live_system(ns, cfg, rt, wire)
            holder["system"] = system
            LiveService(system).attach(wire)
            await wire.start_listeners()
            conns = []
            for sid in range(n_servers):
                conn = HomeConnection(loop, addresses[sid])
                await conn.connect()
                conns.append(conn)
            sem = asyncio.Semaphore(pipeline_depth)

            async def one(i: int) -> None:
                async with sem:
                    reply = await conns[i % n_servers].lookup(
                        dests[i], timeout=10.0
                    )
                    assert reply is not None and reply.ok

            t0 = time.perf_counter()
            await asyncio.gather(*(one(i) for i in range(n_lookups)))
            wall = time.perf_counter() - t0
            for conn in conns:
                await conn.close()
            await wire.close()
            return wall

    wall = asyncio.run(drive())
    return {"events": n_lookups, "engine_events": 0,
            "wall_s": wall, "events_per_sec": n_lookups / wall,
            "mem_bytes": deep_sizeof(holder["system"])}


def bench_shard_egress_codec() -> Dict[str, float]:
    """``shard_window`` with the packed egress codec forced on.

    Still the inline backend, so the delta against ``shard_window`` is
    the pure cost (or win) of encoding/decoding every cross-shard
    barrier through :mod:`repro.sim.shardcodec` -- the frames the
    process backend puts on its worker pipes.
    """
    from repro.sim.shard import WindowedCoordinator
    from repro.workload.streams import uzipf_stream

    ns = balanced_tree(levels=8)
    cfg = SystemConfig.replicated(n_servers=16, seed=9, cache_slots=16)
    spec = uzipf_stream(rate=400.0, duration=4.0, alpha=1.0, seed=9)
    coord = WindowedCoordinator(ns, cfg, spec, 2, backend="inline",
                                codec=True)
    t0 = time.perf_counter()
    run = coord.run(spec.duration + 5.0)
    wall = time.perf_counter() - t0
    msgs = run.transport.n_sent + run.transport.n_control_sent
    return {"events": msgs, "engine_events": run.engine.n_dispatched,
            "wall_s": wall, "events_per_sec": msgs / wall,
            "mem_bytes": deep_sizeof(run)}


def bench_shard_multicore() -> Dict[str, float]:
    """The full multi-core data plane: 2 shard worker processes.

    Shared-memory arenas, packed pipe frames, window coalescing --
    everything the process backend ships.  On a single-core host this
    trails ``shard_window`` (two workers time-slice one core and pay
    the barrier round-trips).  ``wall_s`` includes worker spawn and
    arena export, because a real run pays them too.
    """
    from repro.sim.shard import WindowedCoordinator
    from repro.workload.streams import uzipf_stream

    ns = balanced_tree(levels=8)
    cfg = SystemConfig.replicated(n_servers=16, seed=9, cache_slots=16)
    spec = uzipf_stream(rate=400.0, duration=4.0, alpha=1.0, seed=9)
    coord = WindowedCoordinator(ns, cfg, spec, 2, backend="process")
    t0 = time.perf_counter()
    run = coord.run(spec.duration + 5.0)
    wall = time.perf_counter() - t0
    msgs = run.transport.n_sent + run.transport.n_control_sent
    return {"events": msgs, "engine_events": run.engine.n_dispatched,
            "wall_s": wall, "events_per_sec": msgs / wall,
            "mem_bytes": deep_sizeof(run)}


# simulator scenarios gate the engine/server/routing hot paths; live
# scenarios gate the asyncio runtime stack.  The two move for unrelated
# reasons (a socket-stack change cannot speed up the simulator and vice
# versa), so each set gets its own geomean headline and gate.
SIM_SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {
    "transport_chain": bench_transport_chain,
    "end_to_end": bench_end_to_end,
    "client_load": bench_client_load,
    "routing_decide_small": bench_routing_decide_small,
    "routing_decide_large": bench_routing_decide_large,
    "shard_window": bench_shard_window,
    "shard_egress_codec": bench_shard_egress_codec,
    "shard_multicore": bench_shard_multicore,
}
LIVE_SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {
    "serve_loopback": bench_serve_loopback,
}
SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {
    **SIM_SCENARIOS, **LIVE_SCENARIOS,
}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def _geomean(rates: List[float]) -> float:
    return math.exp(sum(math.log(r) for r in rates) / len(rates))


def run_benchmarks(repeats: int = REPEATS) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` per scenario, plus the composite headlines.

    ``headline`` is the geomean over the *simulator* scenarios;
    ``headline_live`` over the live (asyncio) scenarios.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, fn in SCENARIOS.items():
        best = None
        for _ in range(max(1, repeats)):
            r = fn()
            if best is None or r["events_per_sec"] > best["events_per_sec"]:
                best = r
        out[name] = best
    out["headline"] = {"events_per_sec": _geomean(
        [out[n]["events_per_sec"] for n in SIM_SCENARIOS]
    )}
    out["headline_live"] = {"events_per_sec": _geomean(
        [out[n]["events_per_sec"] for n in LIVE_SCENARIOS]
    )}
    return out


def check_regression(
    results: Dict[str, Dict[str, float]],
    baseline_path: str,
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Scenarios regressing more than ``tolerance`` vs the baseline.

    Throughput regresses downward (``events_per_sec`` below the floor);
    memory regresses upward (``mem_bytes`` above the ceiling).
    """
    with open(baseline_path) as f:
        baseline = json.load(f)
    reference = baseline.get("after", baseline)
    failures = []
    for name, ref in reference.items():
        cur = results.get(name)
        if cur is None:
            continue
        ref_rate = ref.get("events_per_sec")
        if ref_rate is not None:
            floor = (1.0 - tolerance) * ref_rate
            if cur["events_per_sec"] < floor:
                failures.append(
                    f"{name}: {cur['events_per_sec']:,.0f} ev/s < "
                    f"{floor:,.0f} (baseline {ref_rate:,.0f}, "
                    f"tolerance {tolerance:.0%})"
                )
        ref_mem = ref.get("mem_bytes")
        cur_mem = cur.get("mem_bytes")
        if ref_mem and cur_mem:
            ceiling = (1.0 + tolerance) * ref_mem
            if cur_mem > ceiling:
                failures.append(
                    f"{name}: {cur_mem:,.0f} mem bytes > "
                    f"{ceiling:,.0f} (baseline {ref_mem:,.0f}, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def main(argv: List[str]) -> int:
    out_path = None
    check_path = None
    args = list(argv)
    while args:
        a = args.pop(0)
        if a == "--out":
            out_path = args.pop(0)
        elif a == "--check":
            check_path = args.pop(0)
        else:
            raise SystemExit(f"unknown argument {a!r} "
                             "(expected --out FILE / --check BASELINE)")
    results = run_benchmarks()
    payload = json.dumps(results, indent=1, sort_keys=True)
    print(payload)
    if out_path:
        with open(out_path, "w") as f:
            f.write(payload + "\n")
    if check_path:
        failures = check_regression(results, check_path)
        if failures:
            for line in failures:
                print(f"REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"ok: no scenario regressed >{TOLERANCE:.0%} "
              f"vs {check_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main(sys.argv[1:]))
