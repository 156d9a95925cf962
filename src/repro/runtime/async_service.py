"""Live peer hosting: a TerraDir cluster over real sockets.

:class:`LiveSystem` is the event-loop counterpart of
:class:`repro.cluster.system.System`: it owns the namespace, config,
stats sink, RNG streams, and the peers hosted *in this process*, and
exposes the exact attribute surface the builder and the Peer pipeline
consume (``cfg``/``ns``/``rng_streams``/``stats``/``runtime``/
``peers``/``transport.register``).  Peer construction and wiring are
therefore **shared with the simulator** -- both paths call
:func:`repro.cluster.builder._populate_system`, so ownership maps,
neighbor pins, digest geometry, heterogeneity draws, and bootstrap
load knowledge are built by the same code with the same seeded draws.

A process may host all of a cluster's peers (the single-process
``python -m repro serve`` default and the conformance suite) or a
contiguous sid range (multi-process deployments); remote peers stay
``None`` in the sid-indexed ``peers`` list, exactly like
:class:`~repro.cluster.system.ShardSystem`.

:class:`LiveService` is the client plane: it answers
:class:`~repro.net.message.ClientLookup` frames arriving on a hosted
peer's listener by injecting the query locally, parking a completion
hook, and framing a :class:`~repro.net.message.ClientLookupReply` back
on the same connection -- with a server-side deadline (one
:class:`~repro.runtime.async_runtime.DeadlineQueue` per service) so a
dropped query answers ``ok=False`` instead of leaking the hook.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import SystemConfig
from repro.namespace.tree import Namespace
from repro.net.frame import encode_frame
from repro.net.message import ClientLookup, ClientLookupReply
from repro.runtime.async_runtime import AsyncRuntime, DeadlineQueue
from repro.runtime.async_wire import AsyncWire
from repro.sim.rng import RngStreams
from repro.sim.stats import StatsSink, SystemStats

__all__ = ["LiveService", "LiveSystem", "build_live_system"]

_log = logging.getLogger(__name__)


class LiveSystem:
    """A live (event-loop) TerraDir deployment, or one process's slice."""

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        runtime: AsyncRuntime,
        wire: AsyncWire,
        owner: List[int],
        stats: Optional[StatsSink] = None,
    ) -> None:
        self.ns = ns
        self.cfg = cfg
        self.runtime = runtime
        self.transport = wire
        self.stats = stats if stats is not None else SystemStats(ns.max_depth)
        self.rng_streams = RngStreams(cfg.seed)
        # full-length sid-indexed list; None marks peers hosted by
        # other processes (the ShardSystem convention: the builder
        # fills ``peers`` by sid and appends to ``local_peers``)
        self.peers: List[Any] = [None] * cfg.n_servers
        self.local_peers: List[Any] = []
        self.owner = owner
        self._qid = 0
        self._maintenance_scheduled = False
        self.on_inject = None  # optional (now, src, dest) tap for tracing

    # ------------------------------------------------------------------
    # client API (local peers only)
    # ------------------------------------------------------------------

    def inject(self, src_server: int, dest_node: int) -> int:
        """Initiate a lookup for ``dest_node`` at local peer ``src_server``."""
        peer = self.peers[src_server]
        if peer is None:
            raise ValueError(f"server {src_server} is not hosted here")
        self._qid += 1
        if self.on_inject is not None:
            self.on_inject(self.runtime.now, src_server, dest_node)
        peer.inject(dest_node, self._qid)
        return self._qid

    def lookup_name(self, src_server: int, name: str) -> int:
        return self.inject(src_server, self.ns.id_of(name))

    # ------------------------------------------------------------------
    # maintenance (wall-clock ticks over local peers)
    # ------------------------------------------------------------------

    def start_maintenance(self) -> None:
        """Schedule the recurring maintenance ticks (idempotent)."""
        if self._maintenance_scheduled:
            return
        self._maintenance_scheduled = True
        rt = self.runtime
        rt.schedule_after(self.cfg.load_window, self._tick_windows)
        rt.schedule_after(self.cfg.rank_rescale_interval, self._tick_ranking)
        if self.cfg.replica_idle_timeout > 0:
            rt.schedule_after(
                self.cfg.replica_idle_timeout, self._tick_idle_eviction
            )

    def _tick_windows(self) -> None:
        now = self.runtime.now
        stats = self.stats
        sample = self.cfg.sample_loads_every > 0
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
        self.runtime.schedule_after(
            self.cfg.rank_rescale_interval, self._tick_ranking
        )

    def _tick_idle_eviction(self) -> None:
        now = self.runtime.now
        for peer in self.local_peers:
            peer.evict_idle_replicas(now)
        self.runtime.schedule_after(
            self.cfg.replica_idle_timeout, self._tick_idle_eviction
        )

    # ------------------------------------------------------------------
    # introspection (local slice)
    # ------------------------------------------------------------------

    def total_replicas(self) -> int:
        return sum(len(p.replicas) for p in self.local_peers)

    def hosted_counts(self) -> List[int]:
        return [p.n_hosted for p in self.local_peers]

    def hosts_of(self, node: int) -> List[int]:
        return [p.sid for p in self.local_peers if p.hosts(node)]

    def __repr__(self) -> str:
        return (
            f"LiveSystem(servers={len(self.local_peers)}/"
            f"{self.cfg.n_servers}, nodes={len(self.ns)}, "
            f"t={self.runtime.now:.2f})"
        )


class LiveService:
    """The client plane of one live host: lookups over the socket."""

    def __init__(self, system: LiveSystem, lookup_deadline: float = 5.0) -> None:
        if lookup_deadline <= 0:
            raise ValueError("lookup_deadline must be > 0")
        self.system = system
        self.lookup_deadline = lookup_deadline
        self.n_lookups = 0
        self.n_completed = 0
        self.n_deadline_failures = 0
        # one deadline per lookup, all of one length: a FIFO behind one
        # timer, keyed (peer, hook key, request, connection)
        self._deadlines = DeadlineQueue(
            system.runtime.loop, self._is_waiting, self._on_deadline
        )

    def attach(self, wire: AsyncWire) -> None:
        """Install this service as the wire's client-plane handler."""
        wire.on_client = self.handle_client

    # the wire calls this synchronously from a listener connection's
    # read callback; ``writer`` is that connection's transport
    def handle_client(
        self, sid: int, msg: ClientLookup, writer: asyncio.WriteTransport
    ) -> None:
        system = self.system
        peer = system.peers[sid]
        rt = system.runtime
        self.n_lookups += 1
        hook_key = ("lookup", system.inject(sid, msg.node))
        settle = self._deadlines.settle

        def on_response(resp: Any) -> None:
            self.n_completed += 1
            self._reply(
                writer,
                ClientLookupReply(
                    msg.cqid, resp.dest, True,
                    servers=list(resp.dest_map),
                    meta_version=resp.meta_version,
                    hops=resp.hops,
                    latency=rt.now - resp.created_at,
                ),
            )
            settle()

        peer.client_hooks[hook_key] = on_response
        self._deadlines.push(
            self.lookup_deadline, (peer, hook_key, msg, writer)
        )

    @staticmethod
    def _is_waiting(entry: Tuple[Any, Any, ClientLookup, Any]) -> bool:
        return entry[1] in entry[0].client_hooks

    def _on_deadline(self, entry: Tuple[Any, Any, ClientLookup, Any]) -> None:
        """The query died inside the cluster (queue drop, lost frame):
        fail the lookup instead of leaking its completion hook."""
        peer, hook_key, msg, writer = entry
        if peer.client_hooks.pop(hook_key, None) is None:
            return  # answered meanwhile
        self.n_deadline_failures += 1
        _log.warning(
            "peer %d: lookup qid=%d for node %d unanswered after %.3g s; "
            "failing it (%d deadline failures so far)",
            peer.sid, hook_key[1], msg.node, self.lookup_deadline,
            self.n_deadline_failures,
        )
        self._reply(writer, ClientLookupReply(msg.cqid, msg.node, False))

    @staticmethod
    def _reply(writer: asyncio.WriteTransport, reply: ClientLookupReply) -> None:
        if writer.is_closing():
            return  # client went away; nothing to answer
        writer.write(encode_frame(reply))


def build_live_system(
    ns: Namespace,
    cfg: SystemConfig,
    runtime: AsyncRuntime,
    wire: AsyncWire,
    owner: Optional[Sequence[int]] = None,
    host_sids: Optional[Sequence[int]] = None,
    stats: Optional[StatsSink] = None,
) -> LiveSystem:
    """Wire the peers hosted by this process onto a live runtime.

    Identical construction path to :func:`repro.cluster.builder
    .build_system` -- same owner resolution, same peer population
    (digests, pins, heterogeneity, bootstrap draws) -- but peers hang
    off an :class:`AsyncRuntime` and register with the framed wire.

    Args:
        host_sids: the sids this process hosts (default: all of them).
    """
    # imported here, not at module top: the builder pulls in the sim
    # engine stack, which live-only deployments never tick
    from repro.cluster.builder import _populate_system, _resolve_owner

    if cfg.oracle_maps:
        raise ValueError(
            "oracle_maps reads ground-truth peer state across the "
            "cluster; it cannot run over a real wire"
        )
    owner_list = _resolve_owner(ns, cfg, owner)
    system = LiveSystem(ns, cfg, runtime, wire, owner_list, stats=stats)
    sids = list(host_sids) if host_sids is not None else list(range(cfg.n_servers))
    _populate_system(system, owner_list, sids)
    runtime.wire = wire
    return system


# typing helper for callers that want the full dict of addresses
AddressMap = Dict[int, Any]
