"""All knobs of the simulated TerraDir system in one dataclass.

Defaults follow the paper's methodology section (as reconstructed in
DESIGN.md): 20 ms mean exponential service time, 25 ms constant
application-layer network time, request queues of 12, 0.5 s load
windows, high-water threshold 0.7, replication factor 2, map bound 4.

Three presets mirror the systems compared in Fig. 5:

* ``SystemConfig.base()``       -- B:   hierarchical routing only,
* ``SystemConfig.caching()``    -- BC:  B + path-propagating caches,
* ``SystemConfig.replicated()`` -- BCR: BC + adaptive replication
  (+ inverse-mapping digests).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict


#: fields that must be > 0, >= 0 and >= 1 (:meth:`SystemConfig.validate`)
_POSITIVE = ("service_mean", "load_window", "l_high_factor", "session_timeout")
_NON_NEGATIVE = (
    "net_delay", "net_jitter", "queue_size", "cache_slots", "rfact",
    "session_backoff", "replica_idle_timeout", "digest_probe_limit",
    "digest_dir_max", "bootstrap_known_peers", "sample_loads_every",
)
_AT_LEAST_ONE = ("n_servers", "rmap", "max_attempts", "max_hops")

#: the Fig. 5 systems: preset -> its (caching, replication, digests)
#: switches, under the names of their ``SystemConfig`` classmethods
_PRESETS: Dict[str, Dict[str, bool]] = {
    name: dict(caching_enabled=c, replication_enabled=r, digests_enabled=d)
    for name, c, r, d in (
        ("base", False, False, False),
        ("caching", True, False, False),
        ("replicated", True, True, True),
    )
}


@dataclasses.dataclass
class SystemConfig:
    """Configuration for one simulated TerraDir deployment."""

    # --- population -----------------------------------------------------
    n_servers: int = 100
    seed: int = 0

    # --- queueing model (paper section 4.1) ------------------------------
    service_mean: float = 0.005
    """Mean exponential service time per processed message, seconds.

    The paper quotes a 20 ms mean per query; since every routing hop
    occupies a server, we amortise that budget over the ~4 hops a
    steady-state lookup takes (see DESIGN.md, parameter reconstruction).
    Utilisation-targeted experiments derive their arrival rates from
    this value times the expected hop count.
    """
    net_delay: float = 0.025
    """Constant application-layer network time per hop, seconds."""
    net_jitter: float = 0.0
    """Mean of an exponential jitter added to every hop's delay
    (0 reproduces the paper's constant-latency model)."""
    queue_size: int = 12
    """Request-queue slots per server; arrivals in excess are dropped."""
    slow_server_fraction: float = 0.0
    """Fraction of servers that are 'slow' (heterogeneity model).

    The paper's closing argument (section 5) nominates the adaptive
    protocol for exploiting P2P heterogeneity: the load metric is
    locally normalized, so slow servers report full capacity sooner and
    shed work to fast ones.  A slow server's mean service time is
    ``service_mean * slow_factor``.
    """
    slow_factor: float = 1.0
    """Service-time multiplier for slow servers (>= 1)."""

    # --- load metric (section 3.1) ---------------------------------------
    load_window: float = 0.5
    """Busy-fraction window w, seconds."""
    l_high: float = 0.7
    """High-water load threshold triggering replication."""
    l_high_auto: bool = False
    """Set the high-water threshold automatically, in proportion to the
    (locally estimated) overall system utilisation -- the alternative
    the paper names in section 3.1.  Each server estimates system
    utilisation as the mean of its own load and the loads it has heard
    in-band, and uses ``clamp(l_high_factor * estimate, l_high_floor,
    0.95)`` as its threshold; ``l_high`` is ignored."""
    l_high_factor: float = 1.75
    """Multiple of estimated system utilisation used when auto is on."""
    l_high_floor: float = 0.3
    """Lower clamp for the automatic threshold."""
    delta_min: float = 0.2
    """Minimum source-target load gap to ship replicas."""

    # --- caching (section 2.4) -------------------------------------------
    caching_enabled: bool = True
    cache_slots: int = 16
    """LRU cache entries per server (the paper sizes them at 16-26).
    Each routing decision scans the cache, so its cost is linear in
    this; writes are O(1) at any size."""
    path_propagation: bool = True
    """Cache the path-so-far at every hop (vs. query endpoints only)."""

    # --- replication (section 3) -----------------------------------------
    replication_enabled: bool = True
    rfact: float = 2.0
    """Replication factor: max replicas per server = rfact * |owned|."""
    rmap: int = 4
    """Maximum node-map entries, at rest and in flight."""
    max_attempts: int = 3
    """Probe attempts per load-balancing session before aborting."""
    session_backoff: float = 0.5
    """Delay before a new session after an aborted one, seconds."""
    session_timeout: float = 2.0
    """Abort a session whose probe/transfer/ack never arrives, seconds."""
    hysteresis_enabled: bool = True
    """Book ideal post-transfer loads immediately (creation step 4)."""
    advertisement_enabled: bool = True
    """Advertise recently created replicas in outgoing node maps."""
    replica_idle_timeout: float = 0.0
    """Evict replicas unused this long; 0 disables timed eviction."""

    # --- inverse-mapping digests (section 3.6) ----------------------------
    digests_enabled: bool = True
    digest_probe_limit: int = 8
    """Digest snapshots probed per routing step (0 = all known)."""
    digest_dir_max: int = 64
    """Digest snapshots retained per server (0 = unbounded)."""
    oracle_maps: bool = False
    """Filter node maps against ground truth instead of digests.

    Models the paper's "oracle" comparison point in section 4.4:
    routing with perfectly accurate host information.  Simulation-only
    device; a real deployment has no oracle.
    """

    # --- bootstrap / safety ----------------------------------------------
    bootstrap_known_peers: int = 8
    """Random peers each server initially knows load info for."""
    max_hops: int = 64
    """TTL guard against routing loops from stale state."""

    # --- instrumentation --------------------------------------------------
    sample_loads_every: float = 1.0
    """Seconds between system-wide load samples (0 disables sampling)."""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ValueError, naming the field, on out-of-range parameters.

        A negative delay, bound or count is never read as "off": the
        readers test its truthiness or schedule with it, so it would
        silently disable a mechanism or crash the run far from here.
        """
        for names, ok, rule in (
            (_POSITIVE, lambda v: v > 0, "> 0"),
            (_NON_NEGATIVE, lambda v: v >= 0, ">= 0"),
            (_AT_LEAST_ONE, lambda v: v >= 1, ">= 1"),
        ):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}")
        if not 0.0 <= self.slow_server_fraction <= 1.0:
            raise ValueError("slow_server_fraction must be in [0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        if not 0.0 < self.l_high <= 1.0:
            raise ValueError("l_high must be in (0, 1]")
        if not 0.0 < self.l_high_floor <= 1.0:
            raise ValueError("l_high_floor must be in (0, 1]")
        if not 0.0 <= self.delta_min <= 1.0:
            raise ValueError("delta_min must be in [0, 1]")

    # ------------------------------------------------------------------
    # Fig. 5 presets
    # ------------------------------------------------------------------

    @classmethod
    def base(cls, **overrides: Any) -> "SystemConfig":
        """B: plain hierarchical routing, no caches/replicas/digests."""
        return cls(**{**_PRESETS["base"], **overrides})

    @classmethod
    def caching(cls, **overrides: Any) -> "SystemConfig":
        """BC: base system plus path-propagating LRU caches."""
        return cls(**{**_PRESETS["caching"], **overrides})

    @classmethod
    def replicated(cls, **overrides: Any) -> "SystemConfig":
        """BCR: caching plus adaptive replication plus digests."""
        return cls(**{**_PRESETS["replicated"], **overrides})

    def replace(self, **overrides: Any) -> "SystemConfig":
        """A modified copy (dataclasses.replace with validation)."""
        return dataclasses.replace(self, **overrides)
