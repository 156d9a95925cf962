"""Diagnostic runs: what ``--trace 1`` reports, the per-layer metrics.

Each run measures an untraced unit for reference, then installs the
:mod:`tracer`, measures traced units, and removes it.  ``<layer>.calls``
and ``<layer>.self_s`` come from the spans; the other per-layer metrics
are read off public attributes of the finished run, or are ratios of
span counts.  README.md defines every name.
"""

from __future__ import annotations

import asyncio
import statistics
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List

from repro.sim import memsize

import livegen
import workloads
from hostspeed import HostSpeed
from measure import OUT, Result, count_live, repeat_for, sim_note, sock_dir
from tracer import UNATTRIBUTED, Tracer


def run_sim(name: str, seed: int, seconds: float, smoke: bool,
            speed: HostSpeed) -> Result:
    """Diagnostic run: untraced units for reference, then traced ones."""
    t_start = perf_counter()
    inputs = workloads.sim_inputs(name, seed, smoke)
    result = Result()
    sharded = name == "shard_hotspot"
    checked: List[Any] = []
    serial = process = None
    if sharded:
        # the traced run is inline with the codec on: the same frames as
        # the process backend, in one process the wrappers can see
        def make(root: Any = nullcontext) -> Any:
            return workloads.shard_unit(inputs, speed, "inline", True, root)

        serial = workloads.serial_unit(inputs, speed)
        process = workloads.shard_unit(inputs, speed)
        process.run = None
        checked += [serial, process]
    else:
        def make(root: Any = nullcontext) -> Any:
            return workloads.serial_unit(inputs, speed, root)

    plain = make()
    plain.run = None
    checked.append(plain)
    tracer = Tracer()
    traced: List[Any] = []

    def one() -> None:
        if traced:
            traced[-1].run = None
        traced.append(make(tracer.root))

    tracer.install()
    try:
        repeat_for(seconds - (perf_counter() - t_start), one)
    finally:
        tracer.remove()
    checked += traced
    reference = checked[0].fingerprint
    for unit in checked:
        why = workloads.check_unit(name, seed, smoke, unit, reference)
        if why:
            result.errors.append(why)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"trace_{name}.jsonl"))

    n = len(traced)
    last = traced[-1]
    run = last.run
    stats = run.stats
    v = layer_values(tracer, 1.0 / n)

    def calls(callable_name: str) -> float:
        return tracer.calls(callable_name) / n

    msgs = run.transport.n_sent + run.transport.n_control_sent
    forwards = sum(stats.route_sources.values())
    routing_fails = stats.drop_reasons.get("routing", 0)
    decisions = max(forwards + stats.n_completed + routing_fails, 1)
    seen: set = set()
    v["namespace.nodes"] = len(run.ns)
    v["namespace.deep_bytes"] = memsize.deep_sizeof(run.ns, seen)
    # peer state is out of reach in a merged sharded run; the serial run
    # of the same inputs holds the same state, as the fingerprint shows
    system = serial.run if sharded else run
    v["cluster.builder.system_deep_bytes"] = memsize.deep_sizeof(system, seen)
    caches = [p.cache for p in system.peers]
    hits = sum(c.hits for c in caches)
    v["server.cache.hit_share"] = hits / max(
        hits + sum(c.misses for c in caches), 1
    )
    v["workload.arrivals.lookups"] = last.injected
    v["sim.engine.events"] = run.engine.n_dispatched
    v["sim.engine.events_per_msg"] = run.engine.n_dispatched / msgs
    v["net.transport.msgs"] = msgs
    v["net.transport.msgs_per_lookup"] = msgs / last.injected
    v["net.transport.control_share"] = run.transport.n_control_sent / msgs
    v["server.ingress.offers"] = calls("IngressQueue.offer")
    v["server.ingress.drops"] = stats.drop_reasons.get("queue", 0)
    v["server.routing_core.cache_win_share"] = (
        stats.route_sources.get("cache", 0) / decisions
    )
    v["server.routing_core.digest_win_share"] = (
        stats.route_sources.get("digest", 0) / decisions
    )
    v["server.routing_core.fail_share"] = routing_fails / decisions
    v["core.routing.decide_us"] = (
        tracer.total_s("decide") / max(tracer.calls("decide"), 1) * 1e6
    )
    v["server.cache.puts_per_msg"] = calls("LRUCache.put") / msgs
    v["core.nsindex.write_calls"] = sum(
        calls(f"AncestorIndex.{op}") for op in ("add", "remove", "touch")
    )
    v["core.nsindex.read_calls"] = calls("AncestorIndex.closest")
    v["filters.tests_per_msg"] = calls("BloomFilter.test_snapshot") / msgs
    v["core.replication.replicas_created"] = stats.n_replicas_created
    v["server.replica_store.installs"] = calls("ReplicaStore.install")
    v["server.replica_store.evictions"] = calls("ReplicaStore.evict")
    v["fail_share"] = last.dropped / last.injected
    if sharded:
        plane = process.data_plane
        v["sim.shard.barriers"] = plane["n_barriers"]
        v["sim.shard.coalesced"] = plane["n_coalesced"]
        v["sim.shard.barrier_wait_s"] = plane["barrier_wait_s"]
        v["sim.shard.bytes_exchanged"] = plane["bytes_exchanged"]
        v["sim.shard.slowdown_vs_serial"] = process.run_s / serial.run_s
        v["sim.shardcodec.encode_s"] = plane["encode_s"]
        v["sim.shardcodec.decode_s"] = plane["decode_s"]
        v["sim.shardcodec.bytes_per_msg"] = plane["bytes_exchanged"] / msgs
    v["trace.overhead_ratio"] = (
        statistics.median(u.run_s for u in traced) / plain.run_s
    )
    result.values = v
    result.attempted = sum(u.injected for u in checked)
    result.failed = sum(u.unaccounted for u in checked)
    result.notes.append(sim_note(name, seed, smoke, checked))
    result.notes.append(layer_table(tracer, f"{n} traced unit(s)"))
    return result


def run_live(seed: int, seconds: float, smoke: bool, speed: HostSpeed) -> Result:
    """Diagnostic run: an untraced cluster under the closed loop and the
    open-loop ladder, then a traced cluster under the closed loop."""
    OUT.mkdir(exist_ok=True)
    step_s = 0.5 * seconds / len(livegen.LADDER)

    async def plain_session() -> Any:
        cluster = await livegen.LiveCluster(seed, smoke, sock_dir()).open()
        try:
            rng = livegen.generator_rng(seed)
            warm_s = await livegen.warm_up(cluster, rng, speed)
            closed = await cluster.closed_loop(
                rng, speed, seconds=0.2 * seconds
            )
            steps = [
                await cluster.open_loop(rng, rate, step_s)
                for rate in livegen.LADDER
            ]
            return cluster, warm_s, closed, steps
        finally:
            await cluster.close()

    tracer = Tracer()

    async def traced_session() -> Any:
        with tracer.root():
            cluster = await livegen.LiveCluster(
                seed, smoke, sock_dir()
            ).open()
            try:
                rng = livegen.generator_rng(seed)
                await livegen.warm_up(cluster, rng, speed)
                return cluster, await cluster.closed_loop(
                    rng, speed, seconds=0.3 * seconds
                )
            finally:
                await cluster.close()

    plain, warm_s, closed, steps = asyncio.run(plain_session())
    tracer.install()
    try:
        traced, traced_closed = asyncio.run(traced_session())
    finally:
        tracer.remove()
    tracer.write_spans(str(OUT / f"trace_live_uniform.jsonl"))

    result = Result()
    count_live(result, plain)
    count_live(result, traced)
    # layer numbers per 1 000 lookups the traced cluster answered
    lookups = max(traced.n_sent, 1)
    v = layer_values(tracer, 1000.0 / lookups)
    at = {int(s["offered"]): s for s in steps}
    first = at[livegen.LADDER[0]]
    v["namespace.nodes"] = len(traced.ns)
    v["workload.arrivals.lookups"] = traced.n_sent
    v["net.frame.frames_per_lookup"] = tracer.calls("encode_frame") / lookups
    v["net.frame.bytes_per_lookup"] = tracer.size("encode_frame") / lookups
    v["runtime.async_service.deadline_failures"] = (
        plain.service.n_deadline_failures + traced.service.n_deadline_failures
    )
    v["runtime.async_runtime.timers_per_lookup"] = sum(
        tracer.calls(f"AsyncRuntime.{op}")
        for op in ("schedule", "schedule_after", "timer_after")
    ) / lookups
    prefix = "runtime.async_client."
    v[prefix + "cpu_us_per_lookup"] = closed["cpu_us_per_lookup"]
    v[prefix + "loop_busy_share"] = first["loop_busy_share"]
    v[prefix + "gen_late_p99_ms"] = first["gen_late_p99_ms"]
    v[prefix + "max_rate_qps"] = livegen.max_rate(steps)
    v[prefix + "lookup_p50_ms"] = first["p50_ms"]
    v[prefix + "lookup_p99_ms"] = first["p99_window_ms"]
    v[prefix + "lookup_p99_whole_ms"] = first["p99_whole_ms"]
    v[prefix + "p50_ms_at_2000"] = at[2000]["p50_ms"]
    v[prefix + "p50_ms_at_3000"] = at[3000]["p50_ms"]
    v[prefix + "timeouts"] = plain.timeouts + traced.timeouts
    v[prefix + "warmup_s"] = warm_s
    v["fail_share"] = result.failed / max(result.attempted, 1)
    v["trace.overhead_ratio"] = (
        closed["lookups_per_s"] / traced_closed["lookups_per_s"]
    )
    result.values = v
    for s in steps:
        result.notes.append(
            f"open loop {s['offered']:.0f}/s: achieved {s['achieved']:.0f}/s, "
            f"p50 {s['p50_ms']:.2f} ms, window p99 {s['p99_window_ms']:.2f} "
            f"ms, whole p99 {s['p99_whole_ms']:.2f} ms, generator late p99 "
            f"{s['gen_late_p99_ms']:.2f} ms, loop busy "
            f"{s['loop_busy_share']:.2f}"
        )
    result.notes.append(
        layer_table(tracer, f"{traced.n_sent} traced lookups")
    )
    return result


# ----------------------------------------------------------------------
# per-layer numbers
# ----------------------------------------------------------------------


def layer_values(tracer: Any, scale: float) -> Dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s``, times ``scale`` (one
    over the traced units, or 1 000 over the traced lookups), plus the
    share of the root span no wrapper covered."""
    values: Dict[str, float] = {}
    layers = tracer.by_layer()
    unattributed = layers.pop(UNATTRIBUTED)
    for layer, row in layers.items():
        values[f"{layer}.calls"] = row["calls"] * scale
        values[f"{layer}.self_s"] = row["self_s"] * scale
    values["trace.unattributed_share"] = (
        unattributed["self_s"] / tracer.root_s()
    )
    return values


def layer_table(tracer: Any, title: str) -> str:
    root_s = tracer.root_s()
    layers = tracer.by_layer()
    lines = [
        f"per-layer budget over {title}; root span {root_s:.3f} s",
        f"  {'layer':<24}{'calls':>12}{'self_s':>10}{'share':>8}",
    ]
    for layer, row in layers.items():
        lines.append(
            f"  {layer:<24}{row['calls']:>12}{row['self_s']:>10.3f}"
            f"{row['self_s'] / root_s:>8.1%}"
        )
    total = sum(row["self_s"] for row in layers.values())
    lines.append(f"  {'sum':<24}{'':>12}{total:>10.3f}{total / root_s:>8.1%}")
    return "\n".join(lines)
