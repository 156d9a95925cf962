"""End-to-end runs: what ``--trace 0`` measures, with no wrapper installed.

A run repeats its workload's unit until ``--seconds`` are spent and
reports reference seconds (:mod:`hostspeed`).  The diagnostic runs in
:mod:`diagnose` share the helpers here.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import resource
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence

import livegen
import workloads
from hostspeed import HostSpeed

OUT = Path(__file__).resolve().parent / "out"


@dataclasses.dataclass
class Result:
    """One workload run: metric values, operation counts, failed checks."""

    values: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: printed above the metrics
    notes: List[str] = dataclasses.field(default_factory=list)


def repeat_for(seconds: float, fn: Callable[[], None]) -> None:
    """Call ``fn`` until ``seconds`` are spent: at least once, and again
    only while the next call is expected to end within half a call of
    the limit, so a run overshoots by half a unit at most."""
    walls: List[float] = []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        fn()
        walls.append(perf_counter() - t)
        if perf_counter() - t0 + 0.5 * statistics.median(walls) > seconds:
            return


def peak_rss_mb(n_workers: int = 0) -> float:
    """Peak resident set of this process, plus ``n_workers`` times the
    largest child's (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------


def run_sim(name: str, seed: int, seconds: float, smoke: bool,
            speed: HostSpeed) -> Result:
    """End-to-end run: repeat cold units for ``seconds``."""
    inputs = workloads.sim_inputs(name, seed, smoke)
    result = Result()
    sharded = name == "shard_hotspot"
    # the sharded result must equal what the serial engine computes
    # from the same inputs, whatever the seed
    reference = (
        workloads.serial_unit(inputs, speed).fingerprint if sharded else None
    )
    units: List[Any] = []

    def one() -> None:
        unit = (workloads.shard_unit if sharded else workloads.serial_unit)(
            inputs, speed
        )
        unit.run = None  # a finished system is tens of MB; keep the numbers
        why = workloads.check_unit(
            name, seed, smoke, unit,
            reference or (units[0].fingerprint if units else None),
        )
        if why:
            result.errors.append(why)
        units.append(unit)

    repeat_for(seconds, one)
    first = units[0]
    result.values = {
        "lookups_per_s": first.completed / workloads.steady_run_s(units),
        "setup_s": statistics.median(u.setup_s for u in units),
        "peak_rss_mb": peak_rss_mb(workloads.N_SHARDS if sharded else 0),
    }
    result.attempted = sum(u.injected for u in units)
    result.failed = sum(u.unaccounted for u in units)
    result.notes.append(sim_note(name, seed, smoke, units))
    result.notes.append(_raw_note(
        first.completed / statistics.median(u.raw_run_s for u in units),
        speed,
    ))
    return result


def _raw_note(raw_lookups_per_s: float, speed: HostSpeed) -> str:
    return (
        f"wall clock: {raw_lookups_per_s:.1f} lookups/s on a host running "
        f"at {speed.typical():.2f}x the reference quantum; the metrics "
        "below are in reference seconds"
    )


def sim_note(name: str, seed: int, smoke: bool, units: Sequence[Any]) -> str:
    first = units[0]
    pinned = not smoke and (name, seed) in workloads.PINS
    return (
        f"{len(units)} unit(s) of {first.injected} lookups "
        f"({first.completed} completed, {first.dropped} dropped in "
        f"simulation); fingerprint {first.fingerprint[:16]} "
        f"({'pinned' if pinned else 'unpinned'})"
    )


# ----------------------------------------------------------------------
# the live workload
# ----------------------------------------------------------------------


def sock_dir() -> str:
    """Socket directory inside ``bench/out``, as a path relative to the
    working directory: a unix socket path holds about 100 bytes, which
    an absolute checkout path can use up."""
    return os.path.relpath(OUT / f"sock-{os.getpid()}")


def run_live(seed: int, seconds: float, smoke: bool, speed: HostSpeed) -> Result:
    """End-to-end run: closed loop for ``seconds`` after a warm-up."""
    OUT.mkdir(exist_ok=True)
    setups = livegen.timed_setups(seed, smoke, sock_dir(), speed, 2)

    async def session() -> Any:
        cluster, took = await livegen.timed_open(
            seed, smoke, sock_dir(), speed
        )
        setups.append(took)
        try:
            rng = livegen.generator_rng(seed)
            await livegen.warm_up(cluster, rng, speed)
            return cluster, await cluster.closed_loop(
                rng, speed, seconds=seconds
            )
        finally:
            await cluster.close()

    cluster, closed = asyncio.run(session())
    result = Result()
    result.values = {
        "lookups_per_s": closed["lookups_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    count_live(result, cluster)
    result.notes.append(_raw_note(closed["raw_lookups_per_s"], speed))
    return result


def count_live(result: Result, cluster: Any) -> None:
    result.attempted += cluster.n_sent
    result.failed += cluster.n_failed
    if cluster.n_failed:
        result.errors.append(
            f"{cluster.n_failed} of {cluster.n_sent} live lookups timed "
            "out, came back ok=False or named the wrong node or host"
        )
