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
    success_cooldown: float = 0.05
    """Minimum gap between successful sessions, seconds."""
    hysteresis_enabled: bool = True
    """Book ideal post-transfer loads immediately (creation step 4)."""
    advertisement_enabled: bool = True
    """Advertise recently created replicas in outgoing node maps."""
    rank_rescale_interval: float = 5.0
    """Seconds between node-weight decays."""
    rank_decay: float = 0.5
    """Multiplier applied to node weights at each rescale."""
    replica_idle_timeout: float = 0.0
    """Evict replicas unused this long; 0 disables timed eviction."""

    # --- inverse-mapping digests (section 3.6) ----------------------------
    digests_enabled: bool = True
    digest_fp_rate: float = 0.02
    """Bloom false-positive rate at nominal per-server capacity."""
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
        """Raise ValueError on out-of-range parameters."""
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.service_mean <= 0:
            raise ValueError("service_mean must be > 0")
        if self.net_delay < 0:
            raise ValueError("net_delay must be >= 0")
        if self.net_jitter < 0:
            raise ValueError("net_jitter must be >= 0")
        if self.queue_size < 0:
            raise ValueError("queue_size must be >= 0")
        if not 0.0 <= self.slow_server_fraction <= 1.0:
            raise ValueError("slow_server_fraction must be in [0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        if self.load_window <= 0:
            raise ValueError("load_window must be > 0")
        if not 0.0 < self.l_high <= 1.0:
            raise ValueError("l_high must be in (0, 1]")
        if self.l_high_factor <= 0:
            raise ValueError("l_high_factor must be > 0")
        if not 0.0 < self.l_high_floor <= 1.0:
            raise ValueError("l_high_floor must be in (0, 1]")
        if not 0.0 <= self.delta_min <= 1.0:
            raise ValueError("delta_min must be in [0, 1]")
        if self.cache_slots < 0:
            raise ValueError("cache_slots must be >= 0")
        if self.rfact < 0:
            raise ValueError("rfact must be >= 0")
        if self.rmap < 1:
            raise ValueError("rmap must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")

    # ------------------------------------------------------------------
    # Fig. 5 presets
    # ------------------------------------------------------------------

    @classmethod
    def base(cls, **overrides) -> "SystemConfig":
        """B: plain hierarchical routing, no caches/replicas/digests."""
        merged = dict(
            caching_enabled=False,
            replication_enabled=False,
            digests_enabled=False,
        )
        merged.update(overrides)
        return cls(**merged)

    @classmethod
    def caching(cls, **overrides) -> "SystemConfig":
        """BC: base system plus path-propagating LRU caches."""
        merged = dict(
            caching_enabled=True,
            replication_enabled=False,
            digests_enabled=False,
        )
        merged.update(overrides)
        return cls(**merged)

    @classmethod
    def replicated(cls, **overrides) -> "SystemConfig":
        """BCR: caching plus adaptive replication plus digests."""
        merged = dict(
            caching_enabled=True,
            replication_enabled=True,
            digests_enabled=True,
        )
        merged.update(overrides)
        return cls(**merged)

    def replace(self, **overrides) -> "SystemConfig":
        """A modified copy (dataclasses.replace with validation)."""
        return dataclasses.replace(self, **overrides)
