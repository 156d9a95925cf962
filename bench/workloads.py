"""The three simulator workloads: inputs, one timed unit each, checks.

(The fourth workload, ``live_uniform``, lives in :mod:`livegen`.)

A *unit* is one cold pass over a fixed, seeded stream: build the
namespace and the system, run the stream to its horizon, fingerprint
the outcome.  The work in a unit is pinned by the seed, so a unit's
lookups per host second is host time per fixed work, and every count a
unit produces repeats exactly.  :mod:`run` repeats units until the
run's ``--seconds`` are spent.

The serial units advance the clock in slices of ``SLICE_SIM_S``
simulated seconds and time each slice in reference seconds
(:mod:`hostspeed`; ``Engine.run(until)`` stops and resumes without
changing any event, as ``System.run_until`` does for its progress
reports).  Slice *k* is the same work in every unit of a run, which is
what :func:`steady_run_s` uses.

Why these inputs (the same text is in ``BENCHMARK.json``):

``sim_hotspot``
    The fig3/fig6 regime: 64 servers at 40 % utilisation, a uniform
    warm-up and three Zipf(1.0) phases, each opening with an
    instantaneous re-ranking.  The hot set fits the 16-slot caches
    (the ``touch`` fast path) and replica create/evict work runs beside
    routing.
``sim_wide``
    The fig9 regime: uniform destinations over a 32 767-node namespace,
    2 000 times the cache, on 256 servers.  Every cache ``put`` evicts,
    paths are 14 levels deep, and set-up and memory are large enough to
    measure.
``shard_hotspot``
    A two-phase ``sim_hotspot`` stream on the 2-shard process backend:
    the only workload where the windowed loop, the shard codec, the
    arenas and the worker pipes do any work.  Its result must equal
    the serial engine's, bit for bit.

Seeds feed ``SystemConfig.seed`` and ``WorkloadSpec.seed``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence

from hostspeed import HostSpeed
from repro.cluster import builder
from repro.cluster.config import SystemConfig
from repro.experiments.common import rate_for_utilization
from repro.namespace import generators
from repro.sim import shard
from repro.workload import arrivals
from repro.workload.streams import WorkloadSpec, cuzipf_stream, unif_stream

N_SHARDS = 2
SLICE_SIM_S = 0.05
#: quanta on each side of a stretch that takes a second or more
BURST = 25
#: simulated seconds a unit runs on after its last arrival.  A lookup
#: lives 64 hops at most, each a 25 ms link, a queue of 12 at most and a
#: 5 ms mean service: every lookup has completed or dropped by then, so
#: the books must balance (``Unit.unaccounted``).  Idle simulated time
#: is cheap: only the maintenance ticks run.
DRAIN_SIM_S = 6.0

#: sha256 of the **serial** engine's ``run_fingerprint`` for
#: (workload, seed) at full scale; ``python bench/run.py --repin``
#: prints fresh values.  Seed 1 is the default, seed 2 the hold-out;
#: any other seed runs unpinned.
PINS: Dict[tuple, str] = {
    ("sim_hotspot", 1):
        "857a1fdf1a0120ee23bdd29aca8720621cbdf80019da9974145b09b9da3801a4",
    ("sim_hotspot", 2):
        "5d5d56f3fda7ad53f5ed6b4818404dfa4ff50d99a60f640816c60f1a5fc8912e",
    ("sim_wide", 1):
        "69a75727647170fbe7b8a7dc012d9416d168feb9b09580278f7cb74dd20e4565",
    ("sim_wide", 2):
        "6b870d5aa6196df7eaa935ddce2ea05e7089b4e262939dd904286236ceaaea24",
    ("shard_hotspot", 1):
        "37824ecb38ceda46edb99028d46cf8be6c8c99ae5fa3d967d2b7db6770c76457",
    ("shard_hotspot", 2):
        "02a27bd48be550d22ab71bba5fe1cc872cd20a533add55b2a19d40b8a9dbe07e",
}


Span = Callable[[], ContextManager[Any]]


@dataclasses.dataclass(frozen=True)
class SimInputs:
    levels: int
    cfg: SystemConfig
    spec: WorkloadSpec
    until: float


def sim_inputs(name: str, seed: int, smoke: bool = False) -> SimInputs:
    """The generated inputs of one simulator workload."""
    if name == "sim_wide":
        levels, n = (9, 32) if smoke else (14, 256)
        rate = rate_for_utilization(0.2, n)
        spec = unif_stream(rate, duration=0.5 if smoke else 1.5, seed=seed)
    elif name in ("sim_hotspot", "shard_hotspot"):
        levels, n = (7, 16) if smoke else (11, 64)
        rate = rate_for_utilization(0.4, n)
        if smoke:
            n_phases = 1
        else:
            # the sharded loop's cost grows faster than its stream
            # (see README, "known baseline"), so it gets one phase less
            n_phases = 3 if name == "sim_hotspot" else 2
        span = 1.0 if smoke else 2.0
        spec = cuzipf_stream(rate, alpha=1.0, warmup=span, phase=span,
                             n_phases=n_phases, seed=seed)
    else:
        raise ValueError(f"not a simulator workload: {name!r}")
    cfg = SystemConfig.replicated(
        n_servers=n, cache_slots=16, digest_probe_limit=2, seed=seed
    )
    return SimInputs(levels, cfg, spec, spec.duration + DRAIN_SIM_S)


@dataclasses.dataclass
class Unit:
    """What one unit measured and produced.  Times are reference
    seconds (:mod:`hostspeed`) except ``raw_run_s``."""

    setup_s: float
    slice_s: List[float]  # each timed slice, in order
    raw_run_s: float  # the slices' wall-clock total
    injected: int
    completed: int
    dropped: int
    fingerprint: str
    run: Any  # the finished System or MergedRun
    data_plane: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(self.slice_s)

    @property
    def unaccounted(self) -> int:
        """Lookups neither completed nor dropped when the run ended."""
        return self.injected - self.completed - self.dropped


def fingerprint(run: Any) -> str:
    blob = json.dumps(shard.run_fingerprint(run), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _unit(setup_s: float, slice_s: List[float], raw_run_s: float, run: Any,
          **extra: Any) -> Unit:
    stats = run.stats
    return Unit(setup_s, slice_s, raw_run_s, stats.n_injected,
                stats.n_completed, stats.n_dropped, fingerprint(run), run,
                **extra)


def steady_run_s(units: Sequence[Unit]) -> float:
    """Reference seconds one unit's stream takes when the host does not
    get in the way: for each slice of work, the fastest of the units'
    times.  The host only ever slows a slice down, and the scaling to
    reference seconds takes out most of that, not all.
    """
    return sum(min(times) for times in zip(*(u.slice_s for u in units)))


def serial_unit(inputs: SimInputs, speed: HostSpeed,
                root: Span = nullcontext) -> Unit:
    """Cold build, then the whole stream on the serial engine.

    ``root`` opens the span a traced unit's build and run nest in.
    """
    gc.collect()
    speed.slowdown(BURST)
    with root():
        t0 = perf_counter()
        ns = generators.balanced_tree(levels=inputs.levels)
        system = builder.build_system(ns, inputs.cfg)
        arrivals.WorkloadDriver(system, inputs.spec).start()
        setup_s = (perf_counter() - t0) / speed.slowdown(BURST)
        slice_s: List[float] = []
        raw = t = 0.0
        while t < inputs.until:
            t = min(t + SLICE_SIM_S, inputs.until)
            t1 = perf_counter()
            system.run_until(t)
            took = perf_counter() - t1
            raw += took
            slice_s.append(took / speed.slowdown())
    return _unit(setup_s, slice_s, raw, system)


def shard_unit(inputs: SimInputs, speed: HostSpeed, backend: str = "process",
               codec: bool = False, root: Span = nullcontext) -> Unit:
    """Cold build (with arrival pre-generation), then the whole stream
    on ``N_SHARDS`` windowed engines as one slice: the coordinator runs
    to the horizon in one call, worker spawn and final merge included.
    """
    gc.collect()
    speed.slowdown(BURST)
    with root():
        t0 = perf_counter()
        ns = generators.balanced_tree(levels=inputs.levels)
        coord = shard.WindowedCoordinator(
            ns, inputs.cfg, inputs.spec, N_SHARDS, backend=backend,
            codec=codec,
        )
        setup_s = (perf_counter() - t0) / speed.slowdown(BURST)
        t1 = perf_counter()
        if backend == "process":
            # this process only waits at barriers meanwhile
            with speed.watch() as watch:
                run = coord.run(inputs.until)
            raw = perf_counter() - t1
            run_s = raw / watch.slowdown
        else:
            run = coord.run(inputs.until)
            raw = perf_counter() - t1
            run_s = raw / speed.slowdown(BURST)
    return _unit(setup_s, [run_s], raw, run,
                 data_plane=dict(coord.data_plane))


def check_unit(name: str, seed: int, smoke: bool, unit: Unit,
               reference: Optional[str]) -> Optional[str]:
    """Why ``unit`` is wrong, or None.

    ``reference`` is the fingerprint every unit of this run must equal:
    the first unit's (the same seed must give the same outcome) or, on
    ``shard_hotspot``, the serial engine's.  A pinned seed must also
    equal its pin.
    """
    if unit.unaccounted:
        return (f"{unit.unaccounted} of {unit.injected} lookups neither "
                "completed nor dropped")
    if reference is not None and unit.fingerprint != reference:
        return (f"fingerprint {unit.fingerprint[:16]} differs from the "
                f"reference {reference[:16]}")
    pin = None if smoke else PINS.get((name, seed))
    if pin is not None and unit.fingerprint != pin:
        return (f"fingerprint {unit.fingerprint[:16]} differs from the "
                f"pinned serial value {pin[:16]}")
    return None
