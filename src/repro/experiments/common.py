"""Shared experiment infrastructure: scales, namespaces, run helpers.

The paper's runs (1,000 servers, 32,767-node N_S, 250-10,000 simulated
seconds, up to 24M queries) are hours of CPU for a pure-Python DES, so
every experiment is parameterised by a :class:`Scale` that shrinks
server count, namespace, rates, and durations *together*, preserving
the dimensionless quantities that determine every figure's shape:
target utilisations, Zipf orders, threshold ratios (l_high, delta_min),
queue depth, cache-to-namespace ratio, and replication factor.

Select a scale with the ``REPRO_SCALE`` environment variable
(``tiny`` | ``small`` | ``paper`` | ``million``; default ``tiny``).

The ``million`` scale points the same experiments at a 2^20 - 1 node
namespace on 1,024 servers -- the "millions of users" regime the
array-backed namespace arenas exist for.  Durations are kept short
(the point is state scale, not steady-state statistics), so a table1
audit or a fig9 point at this scale completes on a laptop.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.cluster.system import System
from repro.experiments.parallel import env_count, shard_backend
from repro.namespace.generators import balanced_tree, coda_like_tree
from repro.namespace.tree import Namespace
from repro.sim.engine import ShardError
from repro.sim.shard import WindowedCoordinator
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import WorkloadSpec, cuzipf_stream, unif_stream


@dataclasses.dataclass(frozen=True)
class Scale:
    """One coherent scaled-down configuration of the paper's testbed.

    Attributes:
        name: scale label.
        ns_levels: N_S binary-tree depth (paper: 14 -> 32,767 nodes).
        nc_nodes: N_C synthetic file-system node count (paper: ~74k).
        n_servers: participating servers (paper: 1,000).
        hops_estimate: expected processed messages per query, used to
            convert a utilisation target into an arrival rate.
        warmup: uniform warm-up seconds in cuzipf streams (paper: 50).
        phase: seconds per Zipf phase (paper: 50).
        n_phases: Zipf phases per cuzipf stream (paper: 4).
        drain: extra seconds to let in-flight queries finish.
        cache_slots: LRU entries per server.
        digest_probe_limit: digest snapshots probed per routing step.
            Must shrink with the system: probing k digests covers
            ``k * nodes_per_server / n_nodes`` of the namespace per
            hop, and that fraction -- about 0.8% at paper scale -- is
            what must be preserved, or digest shortcuts erase the
            hierarchical bottleneck the paper studies.
        long_run: duration of the Fig. 8 stabilisation run (paper: 10,000 s).
        long_bucket: seconds per Fig. 8 bucket (paper: 60 s).
        fig9_nodes_per_server: namespace nodes per server in the Fig. 9
            sweep (paper: 8; the million scale raises it to 1,024 so a
            single point exercises a ~10^6-node namespace).
    """

    name: str
    ns_levels: int
    nc_nodes: int
    n_servers: int
    hops_estimate: float = 3.5
    warmup: float = 50.0
    phase: float = 50.0
    n_phases: int = 4
    drain: float = 5.0
    cache_slots: int = 16
    digest_probe_limit: int = 8
    long_run: float = 10_000.0
    long_bucket: int = 60
    fig9_nodes_per_server: int = 8

    @property
    def smooth_window(self) -> int:
        """Fig. 6 right-panel smoothing window (paper: 11 s at phase 50)."""
        return max(3, int(round(self.phase * 11.0 / 50.0)) | 1)

    def rate(self, util: float) -> float:
        """The arrival rate that loads this scale's fleet to ``util``."""
        return rate_for_utilization(
            util, self.n_servers, hops_estimate=self.hops_estimate
        )

    def stream(self, rate: float, alpha: float, seed: int) -> WorkloadSpec:
        """The standard stream: ``cuzipf{alpha}``, or ``unif`` at alpha 0.

        Both last ``warmup + n_phases * phase`` seconds.
        """
        if alpha == 0.0:
            return unif_stream(
                rate, self.warmup + self.n_phases * self.phase, seed=seed
            )
        return cuzipf_stream(
            rate, alpha, warmup=self.warmup, phase=self.phase,
            n_phases=self.n_phases, seed=seed,
        )


TINY = Scale(
    name="tiny", ns_levels=10, nc_nodes=3_000, n_servers=32,
    warmup=6.0, phase=6.0, n_phases=4, cache_slots=12,
    digest_probe_limit=1, long_run=240.0, long_bucket=30,
)
SMALL = Scale(
    name="small", ns_levels=11, nc_nodes=10_000, n_servers=64,
    warmup=12.0, phase=12.0, n_phases=4, cache_slots=16,
    digest_probe_limit=2, long_run=480.0, long_bucket=40,
)
PAPER = Scale(
    name="paper", ns_levels=14, nc_nodes=73_752, n_servers=1_000,
    warmup=50.0, phase=50.0, n_phases=4, cache_slots=26,
    digest_probe_limit=8, long_run=10_000.0, long_bucket=60,
)
MILLION = Scale(
    name="million", ns_levels=19, nc_nodes=1_000_000, n_servers=1_024,
    warmup=1.0, phase=1.0, n_phases=2, drain=2.0, cache_slots=26,
    digest_probe_limit=8, long_run=240.0, long_bucket=30,
    fig9_nodes_per_server=1_024,
)

SCALES: Dict[str, Scale] = {s.name: s for s in (TINY, SMALL, PAPER, MILLION)}


def get_scale(name: Optional[str] = None) -> Scale:
    """Resolve a scale by name, falling back to ``$REPRO_SCALE`` or tiny."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "tiny")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        ) from None


def get_seed(seed: Optional[int] = None) -> int:
    """Resolve the base seed: explicit argument, ``$REPRO_SEED``, or 0.

    Every experiment entry point funnels its ``seed=None`` default
    through here, so a whole campaign can be re-run under a different
    base seed (``REPRO_SEED=7 python -m repro run ...``) without
    touching any call site.
    """
    if seed is not None:
        return seed
    raw = os.environ.get("REPRO_SEED", "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SEED must be an integer, got {raw!r}"
        ) from None


def rate_for_utilization(
    util: float,
    n_servers: int,
    service_mean: float = 0.005,
    hops_estimate: float = 3.5,
) -> float:
    """Global arrival rate producing a target mean utilisation.

    Each query occupies ``hops_estimate`` servers for ``service_mean``
    seconds each, so ``util = rate * hops * T / N``.
    """
    if not 0.0 < util < 1.0:
        raise ValueError("util must be in (0, 1)")
    return util * n_servers / (service_mean * hops_estimate)


def make_ns(scale: Scale) -> Namespace:
    """The synthetic N_S namespace (perfectly balanced binary tree)."""
    return balanced_tree(levels=scale.ns_levels)


def make_nc(scale: Scale) -> Namespace:
    """The file-system-shaped N_C namespace (Coda stand-in)."""
    return coda_like_tree(n_nodes=scale.nc_nodes)


PRESET_CONFIGS = {
    "B": SystemConfig.base,
    "BC": SystemConfig.caching,
    "BCR": SystemConfig.replicated,
}
"""The Fig. 5 presets: base, +caching, +caching and replication."""


def build(
    ns: Namespace,
    scale: Scale,
    preset: str = "BCR",
    seed: int = 0,
    **overrides,
) -> System:
    """Build a system under one of the Fig. 5 presets (B, BC, BCR)."""
    factory = PRESET_CONFIGS[preset]
    merged = dict(
        n_servers=scale.n_servers,
        seed=seed,
        cache_slots=scale.cache_slots,
        digest_probe_limit=scale.digest_probe_limit,
    )
    merged.update(overrides)
    cfg = factory(**merged)
    return build_system(ns, cfg)


def run_point(
    scale: Scale,
    spec: WorkloadSpec,
    namespace: str = "S",
    preset: str = "BCR",
    seed: int = 0,
    **overrides,
) -> System:
    """One experiment point: build on N_S or N_C, drive ``spec``, drain.

    Returns the drained system for the point function to summarise.
    """
    ns = make_ns(scale) if namespace == "S" else make_nc(scale)
    system = build(ns, scale, preset=preset, seed=seed, **overrides)
    WorkloadDriver(system, spec).run(extra_time=scale.drain)
    return system


def run_sharded_workload(
    ns: Namespace,
    cfg: SystemConfig,
    spec: WorkloadSpec,
    until: float,
    shards: Optional[int] = None,
) -> Any:
    """Run one workload to ``until``, sharded when asked and possible.

    The shard count is ``shards``, else ``REPRO_SHARDS`` (default 1 =
    the plain serial engine, zero new machinery on that path), clamped
    to ``cfg.n_servers``; :func:`~repro.experiments.parallel.shard_backend`
    derives where the shards run.  Configs the windowed protocol cannot
    handle (jitter, zero delay, oracle maps) raise :class:`ShardError`
    inside the coordinator; this wrapper warns and falls back to the
    serial engine, which handles everything.

    Returns the finished :class:`~repro.cluster.system.System` (serial)
    or :class:`~repro.sim.shard.MergedRun` (sharded); both carry the
    full analysis read surface, and fixed-seed fingerprints are
    bit-identical either way.
    """
    if shards is None:
        shards = env_count("REPRO_SHARDS") or 1
    n = min(shards, cfg.n_servers)
    if n != 1:  # the coordinator rejects a count below 1
        try:
            coord = WindowedCoordinator(
                ns, cfg, spec, n, backend=shard_backend(n)
            )
        except ShardError as exc:
            warnings.warn(
                f"sharded run unavailable ({exc}); falling back to the "
                "serial engine",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            return coord.run(until)
    system = build_system(ns, cfg)
    WorkloadDriver(system, spec).start()
    system.run_until(until)
    return system


ZIPF_ORDERS: Tuple[float, ...] = (0.75, 1.00, 1.25, 1.50)
"""The Zipf orders the paper sweeps ("covering the whole domain of
interest: 0.75, 1.00, 1.25, and 1.50 for heavily skewed requests")."""

UTILIZATION_TARGETS: Tuple[float, ...] = (0.08, 0.2, 0.4)
"""The three utilisation factors of section 4.3."""


def staggered_streams(scale: Scale, rate: float, seed: int) -> List[WorkloadSpec]:
    """Figs. 3 and 4's streams: ``unif``, then one cuzipf per Zipf order.

    The paper lets the unif prefix "run longer in increments" per Zipf
    order so the reshuffle spikes of the curves interleave; every
    stream lasts as long as the ``unif`` one.
    """
    stagger = scale.warmup / 5.0
    duration = scale.warmup + 4 * stagger + scale.n_phases * scale.phase
    return [unif_stream(rate, duration, seed=seed, name="unif")] + [
        cuzipf_stream(
            rate, alpha, warmup=scale.warmup + (i + 1) * stagger,
            phase=scale.phase, n_phases=scale.n_phases, seed=seed,
            name=f"uzipf{alpha:.2f}",
        )
        for i, alpha in enumerate(ZIPF_ORDERS)
    ]
