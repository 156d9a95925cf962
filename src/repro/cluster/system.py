"""The assembled TerraDir system.

:class:`System` owns the engine, transport, namespace, peers, and the
stats sink every component reports into -- a full
:class:`~repro.sim.stats.SystemStats` collector by default, or any
other :class:`~repro.sim.stats.StatsSink` (``NullSink`` for hot
benchmark runs; a shard's system records into a
:class:`~repro.sim.shard.ShardRecorder`).  It also drives
periodic maintenance (load-window rolls, ranking rescales, load
sampling, idle-replica eviction) as a single global process to keep
event-heap pressure low.

Maintenance, name lookup and introspection are written against
``self.runtime`` only, so the live
:class:`~repro.runtime.async_service.LiveSystem` inherits them and
runs the same schedule on an event loop.  On the simulator,
``runtime.schedule_after`` *is* ``engine.schedule_after`` and
``runtime.now`` reads ``engine.now``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import SystemConfig
from repro.namespace.tree import Namespace
from repro.net.transport import ShardTransport, Transport, shard_sids
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Engine, ShardError
from repro.sim.rng import RngStreams
from repro.sim.stats import StatsSink, SystemStats
from repro.sim.timerwheel import TimerWheel

if TYPE_CHECKING:
    from repro.server.peer import Peer

__all__ = ["ShardSystem", "System"]

#: seconds between node-weight decays (every peer's ranking rescale)
RANK_RESCALE_INTERVAL = 5.0


class System:
    """A fully wired simulated TerraDir deployment.

    Build one with :func:`repro.cluster.builder.build_system`; drive it
    with a workload (:mod:`repro.workload`) and :meth:`run_until`.
    """

    __slots__ = (
        "ns",
        "cfg",
        "engine",
        "transport",
        "timers",
        "runtime",
        "stats",
        "rng_streams",
        "peers",
        "local_peers",
        "owner",
        "solo",
        "_qid",
        "_maintenance_scheduled",
        "on_inject",
    )

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        engine: Engine,
        owner: Sequence[int],
        stats: Optional[StatsSink] = None,
    ) -> None:
        self.engine = engine
        self.transport = self._build_transport(engine, cfg)
        # cancel-heavy timers (client lookup timeouts) stay off the heap
        self.timers = TimerWheel(engine)
        # the seam protocol components schedule and send through; its
        # methods *are* the engine/transport/wheel bound methods, so
        # nothing observable changes versus the old direct reach-through
        self.runtime = SimRuntime(engine, self.transport, self.timers)
        self._init_state(ns, cfg, owner, stats)

    def _init_state(
        self, ns: Namespace, cfg: SystemConfig, owner: Sequence[int],
        stats: Optional[StatsSink],
    ) -> None:
        """Everything but the runtime, transport and timers."""
        self.ns = ns
        self.cfg = cfg
        self.stats = stats if stats is not None else SystemStats(ns.max_depth)
        self.rng_streams = RngStreams(cfg.seed)
        self.peers: List = []
        # the peers this engine runs, in ascending sid order: every
        # maintenance and introspection loop iterates this.  Here it
        # *is* ``peers``; a :class:`ShardSystem` or a live system holds
        # a subset
        self.local_peers: List = self.peers
        self.owner = owner
        # the one-server maps, ``solo[s] == (s,)``: a peer's map of a
        # node it keeps is ``solo[owner[v]]`` unless its overlay differs
        self.solo: List[Tuple[int]] = [(s,) for s in range(cfg.n_servers)]
        self._qid = 0
        self._maintenance_scheduled = False
        self.on_inject = None  # optional (now, src, dest) tap for tracing

    def _build_transport(self, engine: Engine, cfg: SystemConfig) -> Transport:
        """Transport factory; :class:`ShardSystem` substitutes its own."""
        return Transport(
            engine, cfg.net_delay, net_jitter=cfg.net_jitter,
            jitter_seed=cfg.seed,
        )

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def inject(self, src_server: int, dest_node: int) -> int:
        """Initiate a lookup for ``dest_node`` at ``src_server``.

        A client whose drawn server has failed goes to the next live
        sid instead (wrapping around; no random draw, so fault-free
        runs draw exactly as before).  With every server failed the
        lookup is lost at the drawn one, as one ``failure`` drop.
        """
        self._qid += 1
        peer = self.peers[src_server]
        if peer.failed:
            peer = self._next_live(src_server)
        if self.on_inject is not None:
            self.on_inject(self.engine.now, peer.sid, dest_node)
        peer.inject(dest_node, self._qid)
        return self._qid

    def _next_live(self, sid: int) -> Peer:
        """The first live peer after ``sid`` in sid order, wrapping
        around; ``sid``'s own peer when every server has failed."""
        peers = self.peers
        n = len(peers)
        for k in range(1, n):
            peer = peers[(sid + k) % n]
            if not peer.failed:
                return peer
        return peers[sid]

    def lookup_name(self, src_server: int, name: str) -> int:
        """Inject a lookup by fully-qualified name."""
        return self.inject(src_server, self.ns.id_of(name))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def start_maintenance(self) -> None:
        """Schedule the recurring maintenance tick (idempotent)."""
        if self._maintenance_scheduled:
            return
        self._maintenance_scheduled = True
        rt = self.runtime
        rt.schedule_after(self.cfg.load_window, self._tick_windows)
        rt.schedule_after(RANK_RESCALE_INTERVAL, self._tick_ranking)
        if self.cfg.replica_idle_timeout > 0:
            rt.schedule_after(
                self.cfg.replica_idle_timeout, self._tick_idle_eviction
            )

    def _tick_windows(self) -> None:
        now = self.runtime.now
        sample = (
            self.cfg.sample_loads_every > 0
            and int(now / self.cfg.load_window)
            % max(1, int(round(self.cfg.sample_loads_every / self.cfg.load_window)))
            == 0
        )
        stats = self.stats
        for peer in self.local_peers:
            if peer.failed:
                continue
            load = peer.roll_window(now)
            if sample:
                stats.sample_load(now, load)
        self.runtime.schedule_after(self.cfg.load_window, self._tick_windows)

    def _tick_ranking(self) -> None:
        for peer in self.local_peers:
            peer.rescale_ranking()
        self.runtime.schedule_after(RANK_RESCALE_INTERVAL, self._tick_ranking)

    def _tick_idle_eviction(self) -> None:
        now = self.runtime.now
        for peer in self.local_peers:
            peer.evict_idle_replicas(now)
        self.runtime.schedule_after(
            self.cfg.replica_idle_timeout, self._tick_idle_eviction
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run_until(self, t: float) -> None:
        """Advance the simulation clock to ``t``."""
        self.start_maintenance()
        self.engine.run(until=t)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def total_replicas(self) -> int:
        """Replicas currently hosted across this engine's servers."""
        return sum(len(p.store.replicas) for p in self.local_peers)

    @property
    def per_sid(self) -> Dict[str, List[Any]]:
        """The simulation-owned state of this engine's servers, one list
        per quantity in ascending sid order: what a fingerprint compares
        and a finished shard ships back."""
        peers = self.local_peers
        return {
            "processed": [p.n_processed for p in peers],
            "queue_drops": [p.ingress.n_drops for p in peers],
            "replicas": [sorted(p.store.replicas) for p in peers],
            "hosted": [sorted(p.store.hosted_list) for p in peers],
        }

    def loads(self, now: Optional[float] = None) -> List[float]:
        t = self.runtime.now if now is None else now
        return [p.meter.load(t) for p in self.local_peers]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(servers={len(self.local_peers)}, "
            f"nodes={len(self.ns)}, t={self.runtime.now:.2f})"
        )


class ShardSystem(System):
    """One shard's slice of a sharded deployment.

    Only the servers assigned to this shard are materialised;
    ``peers`` stays a full-length, sid-indexed list (``None`` for
    remote servers) so existing sid-based indexing keeps working, with
    ``local_peers`` as the dense ascending-sid view every local loop
    (maintenance ticks, introspection) iterates.

    The shard's :class:`~repro.workload.arrivals.WorkloadDriver` feeds
    the arrivals whose source server it runs into :meth:`inject`, with
    their global query ids (:class:`~repro.sim.shard.ShardRunner`).

    Build one with :func:`repro.cluster.builder.build_shard_system`.
    """

    __slots__ = ("shard_id", "n_shards", "local_sids")

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        engine: Engine,
        owner: Sequence[int],
        shard_id: int,
        n_shards: int,
        stats: Optional[StatsSink] = None,
    ) -> None:
        if not 0 <= shard_id < n_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {n_shards}")
        # set before super().__init__: _build_transport reads them
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.local_sids = shard_sids(shard_id, cfg.n_servers, n_shards)
        super().__init__(ns, cfg, engine, owner, stats=stats)
        self.peers = [None] * cfg.n_servers
        self.local_peers: List = []

    def _build_transport(self, engine: Engine, cfg: SystemConfig) -> Transport:
        return ShardTransport(
            engine, cfg.net_delay, shard_id=self.shard_id,
            n_shards=self.n_shards, n_servers=cfg.n_servers,
        )

    def inject(self, src_server: int, dest_node: int, qid: Optional[int] = None) -> int:
        """Initiate a lookup with a *pre-assigned* global query id.

        Sharded runs cannot mint query ids locally (ids must match the
        serial run's arrival-order assignment), so the shard's feeder
        passes them in with each arrival.
        """
        if qid is None:
            raise ShardError(
                "ShardSystem.inject needs a pre-assigned qid; drive "
                "sharded runs through the WindowedCoordinator"
            )
        self._qid = qid
        if self.on_inject is not None:
            self.on_inject(self.engine.now, src_server, dest_node)
        self.peers[src_server].inject(dest_node, qid)
        return qid

    def __repr__(self) -> str:
        return (
            f"ShardSystem(shard={self.shard_id}/{self.n_shards}, "
            f"servers={len(self.local_peers)}/{self.cfg.n_servers}, "
            f"nodes={len(self.ns)}, t={self.engine.now:.2f})"
        )
