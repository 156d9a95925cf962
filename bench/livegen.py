"""``live_uniform``: a live cluster and its load generator on one loop.

Eight peers and the generator share one asyncio loop and talk over
unix-domain sockets in ``bench/out/`` (host loopback; no real link is
crossed).  The generator holds one pipelined ``HomeConnection`` per
peer and draws uniform destinations from an RNG seeded by ``--seed``;
the cluster receives only the lookups.  (With fewer home peers than
peers the home peers run hot, shed load by replicating a hundred nodes
a second, and a few lookups in ten thousand then die at the hop limit
on stale replica maps -- see README, "findings".)  It is the only workload where
``net.frame``, ``runtime.async_wire``, ``runtime.async_service``,
``runtime.async_runtime`` and sockets do any work, and the simulator's
engine and transport do none.

Two load shapes:

*closed loop* -- 16 callers, each sending its next lookup when the
previous reply arrives (callers that wait).  Its throughput is the
workload's ``lookups_per_s``: the median over slices of 500 replies,
each slice timed in reference seconds (:mod:`hostspeed`; the quanta run
between slices, off the clock), so one host stall moves one slice, not
the result.

*open loop* -- Poisson arrivals at a fixed rate, sent on schedule
whether or not earlier lookups have returned (independent users).
Latency runs from the instant a lookup was *due*, so a generator or
loop stall counts against every lookup it delayed, and how late the
generator itself ran is reported.  Only the diagnostic (``--trace 1``)
run drives it, at 1000, 2000 and 3000 lookups/s.

Every reply is checked: it must name the node asked for and list a
server that really hosts it.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

from hostspeed import HostSpeed
from repro.cluster.config import SystemConfig
from repro.namespace import generators
from repro.runtime import async_client, async_runtime, async_service, async_wire

IN_FLIGHT = 16
SLICE = 500
#: quanta between two slices, and on each side of a set-up
SLICE_QUANTA = 5
SETUP_QUANTA = 25
LADDER = (1000, 2000, 3000)
#: the service gives a lookup up after this many seconds (a query that
#: dies inside the cluster is never answered); the client waits twice
#: as long, so the service's ``ok=False`` arrives first, and then asks
#: again: lookups are idempotent, and re-asking is what
#: ``HomeConnection.lookup`` is for.  A lookup counts as failed only
#: when every attempt did.  The time is long enough for the backlog of
#: the 3000/s step to drain on a host half as fast as the one this was
#: sized on.
DEADLINE = 5.0
RETRIES = 2


def quantile(values: Sequence[float], q: float) -> float:
    """The smallest value with at least ``q`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class LiveCluster:
    """The cluster under test plus the generator's connections."""

    def __init__(self, seed: int, smoke: bool, sock_dir: str) -> None:
        self.seed, self.smoke, self.sock_dir = seed, smoke, sock_dir
        self.n_sent = 0
        self.n_failed = 0

    async def open(self) -> "LiveCluster":
        loop = asyncio.get_running_loop()
        n = 4 if self.smoke else 8
        self.ns = generators.balanced_tree(levels=7 if self.smoke else 10)
        cfg = SystemConfig.replicated(
            n_servers=n, cache_slots=16, service_mean=1e-4, queue_size=256,
            seed=self.seed,
        )
        os.makedirs(self.sock_dir, exist_ok=True)
        addresses = async_wire.uds_addresses(self.sock_dir, n)
        runtime = async_runtime.AsyncRuntime(loop)
        self.wire = async_wire.AsyncWire(loop, addresses)
        self.system = async_service.build_live_system(
            self.ns, cfg, runtime, self.wire
        )
        self.service = async_service.LiveService(
            self.system, lookup_deadline=DEADLINE
        )
        self.service.attach(self.wire)
        await self.wire.start_listeners()
        self.system.start_maintenance()
        self.conns = [
            async_client.HomeConnection(loop, addresses[sid])
            for sid in range(n)
        ]
        for conn in self.conns:
            await conn.connect()
        return self

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()
        await self.wire.close()
        shutil.rmtree(self.sock_dir, ignore_errors=True)

    # ------------------------------------------------------------------

    async def lookup(self, conn: Any, node: int) -> bool:
        """One counted, checked lookup; True when the reply is present
        and right."""
        reply = await conn.lookup(node, 2 * DEADLINE, RETRIES)
        self.n_sent += 1
        if reply is not None and reply.ok and reply.node == node and any(
            self.system.peers[s].hosts(node) for s in reply.servers
        ):
            return True
        self.n_failed += 1
        return False

    @property
    def timeouts(self) -> int:
        return sum(conn.n_timeouts for conn in self.conns)

    async def closed_loop(self, rng: random.Random, speed: HostSpeed,
                          seconds: Optional[float] = None,
                          count: Optional[int] = None) -> Dict[str, float]:
        """``IN_FLIGHT`` callers until ``seconds`` pass or ``count``
        lookups are sent."""
        loop = asyncio.get_running_loop()
        n_nodes = len(self.ns)
        n_conns = len(self.conns)
        gc.collect()
        speed.slowdown(SLICE_QUANTA)
        cpu0, t0 = time.process_time(), loop.time()
        stop_at = math.inf if seconds is None else t0 + seconds
        limit = math.inf if count is None else count
        slices: List[float] = []  # reference seconds per SLICE replies
        sent = done = 0
        mark = t0

        async def caller(conn: Any) -> None:
            nonlocal sent, done, mark
            while sent < limit and loop.time() < stop_at:
                sent += 1
                if await self.lookup(conn, rng.randrange(n_nodes)):
                    done += 1
                    if done % SLICE == 0:
                        took = loop.time() - mark
                        # the quanta block the loop: nothing is served
                        # meanwhile, and the next slice starts after them
                        slices.append(took / speed.slowdown(SLICE_QUANTA))
                        mark = loop.time()

        await asyncio.gather(*(
            caller(self.conns[i % n_conns]) for i in range(IN_FLIGHT)
        ))
        elapsed = loop.time() - t0
        return {
            "lookups": done,
            "elapsed_s": elapsed,
            "raw_lookups_per_s": done / elapsed,
            "lookups_per_s": (
                SLICE / statistics.median(slices) if slices else done / elapsed
            ),
            "cpu_us_per_lookup": (
                (time.process_time() - cpu0) / max(done, 1) * 1e6
            ),
        }

    async def open_loop(self, rng: random.Random, rate: float,
                        seconds: float) -> Dict[str, float]:
        """Poisson arrivals at ``rate`` per second for ``seconds``."""
        loop = asyncio.get_running_loop()
        n_nodes = len(self.ns)
        gc.collect()
        failed0 = self.n_failed
        cpu0, t0 = time.process_time(), loop.time()
        end = t0 + seconds
        latencies: List[List[float]] = [[] for _ in range(math.ceil(seconds))]
        late: List[float] = []
        tasks: set = set()

        async def one(conn: Any, node: int, due: float) -> None:
            if await self.lookup(conn, node):
                latencies[int(due - t0)].append(loop.time() - due)

        sent = 0
        due = t0 + rng.expovariate(rate)
        while due < end:
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                now = loop.time()
            # a late wake-up sends everything that fell due meanwhile
            while due <= now and due < end:
                late.append(now - due)
                task = loop.create_task(one(
                    self.conns[sent % len(self.conns)],
                    rng.randrange(n_nodes), due,
                ))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                sent += 1
                due += rng.expovariate(rate)
        while tasks:
            await asyncio.gather(*list(tasks))
        wall = loop.time() - t0
        whole = [x for window in latencies for x in window]
        # a window's p99 needs samples beyond it; the last, partial
        # window of a fractional duration is left out
        windows = [w for w in latencies[: int(seconds)] if len(w) >= 100]
        return {
            "offered": rate,
            "achieved": len(whole) / seconds,
            "fail_share": (self.n_failed - failed0) / max(sent, 1),
            "p50_ms": statistics.median(whole) * 1e3 if whole else 0.0,
            "p99_window_ms": statistics.median(
                quantile(w, 0.99) for w in windows
            ) * 1e3 if windows else 0.0,
            "p99_whole_ms": quantile(whole, 0.99) * 1e3 if whole else 0.0,
            "gen_late_p99_ms": quantile(late, 0.99) * 1e3 if late else 0.0,
            "loop_busy_share": (time.process_time() - cpu0) / wall,
        }


def max_rate(steps: Sequence[Dict[str, float]]) -> float:
    """Highest offered rate the cluster kept up with: window p99 within
    50 ms, at most 1 % failed, at least 95 % of the offered rate done."""
    good = [
        s["offered"] for s in steps
        if s["p99_window_ms"] <= 50.0 and s["fail_share"] <= 0.01
        and s["achieved"] >= 0.95 * s["offered"]
    ]
    return max(good, default=0.0)


async def timed_open(seed: int, smoke: bool, sock_dir: str,
                     speed: HostSpeed) -> Any:
    """Open a cluster; returns it and the reference seconds that took,
    listeners and client connects included."""
    speed.slowdown(SETUP_QUANTA)
    t0 = time.perf_counter()
    cluster = await LiveCluster(seed, smoke, sock_dir).open()
    took = time.perf_counter() - t0
    return cluster, took / speed.slowdown(SETUP_QUANTA)


def timed_setups(seed: int, smoke: bool, sock_dir: str, speed: HostSpeed,
                 n: int) -> List[float]:
    """Set the cluster up and tear it down ``n`` times, each on a fresh
    loop (so no maintenance timer outlives its cluster)."""

    async def once() -> float:
        cluster, took = await timed_open(seed, smoke, sock_dir, speed)
        await cluster.close()
        return took

    return [asyncio.run(once()) for _ in range(n)]


def generator_rng(seed: int) -> random.Random:
    return random.Random(seed ^ 0x11FE)


async def warm_up(cluster: LiveCluster, rng: random.Random,
                  speed: HostSpeed) -> float:
    """Untimed lookups that fill caches and open every peer link."""
    out = await cluster.closed_loop(
        rng, speed, count=300 if cluster.smoke else 5000
    )
    return out["elapsed_s"]
