"""The TerraDir server (peer): a facade over the message pipeline.

A peer owns a set of namespace nodes, may replicate others, and
processes one query at a time from a bounded FIFO request queue
(queries arriving in excess are dropped).  The work is layered into
focused components, composed here:

* :class:`~repro.server.ingress.IngressQueue` -- the bounded FIFO and
  its drop accounting (the M/M/1/K station);
* :class:`~repro.server.softstate.SoftStateAbsorber` -- intake of
  piggybacked soft state (load samples, digest snapshots, new-replica
  advertisements, path cache entries);
* :class:`~repro.server.routing_core.RoutingCore` -- one routing
  decision per processed query, forward/resolve with piggybacking;
* :class:`~repro.server.replica_store.ReplicaStore` -- replica
  lifecycle (install/evict/payloads) and source-side advertisement
  bookkeeping;
* :class:`~repro.core.replication.ReplicationManager` -- the adaptive
  replication protocol sessions.

Inbound messages route through a typed dispatch registry
(:class:`~repro.net.dispatch.DispatchRegistry`) instead of an
``isinstance`` chain; control traffic (replication probes/transfers/
acks, back-propagated advertisements) and query responses bypass the
request queue: they are rare, tiny, and the paper accounts for them
separately.

The facade preserves the original ``Peer`` surface: shared routing
state (maps, pins, cache, digests, ranking, metadata) lives here, and
component-owned state (queue, replicas, known loads) is re-exposed as
properties.
"""

from __future__ import annotations

from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.load import BusyWindowLoadMeter
from repro.core.maps import merge_maps
from repro.core.ranking import NodeRanking
from repro.core.replication import ReplicationManager
from repro.filters.digest import Digest, DigestDirectory
from repro.net.dispatch import DispatchRegistry, UnknownMessageError
from repro.net.message import (
    AdvertMessage,
    DataReply,
    DataRequest,
    ProbeMessage,
    ProbeReplyMessage,
    QueryMessage,
    ReplicaPayload,
    ResponseMessage,
    TransferAckMessage,
    TransferMessage,
)
from repro.namespace.meta import MetaStore
from repro.server.cache import LRUCache
from repro.server.ingress import IngressQueue
from repro.server.replica_store import Replica, ReplicaStore
from repro.server.routing_core import RoutingCore
from repro.server.softstate import SoftStateAbsorber
from repro.sim.rng import exponential

__all__ = [
    "AdvertMessage",  # moved to repro.net.message; re-exported for compat
    "PEER_DISPATCH",
    "Peer",
    "Replica",
]


#: The default message-type -> handler registry for :class:`Peer`.
#: Handlers are attribute names, so subclasses override a handler by
#: overriding the method; alternative endpoints may also register
#: replacements (last registration wins) before peers are built.
PEER_DISPATCH = DispatchRegistry("peer")
PEER_DISPATCH.register(QueryMessage, "_on_query")
PEER_DISPATCH.register(ResponseMessage, "_on_response")
PEER_DISPATCH.register(ProbeMessage, "_on_probe")
PEER_DISPATCH.register(ProbeReplyMessage, "_on_probe_reply")
PEER_DISPATCH.register(TransferMessage, "_on_transfer")
PEER_DISPATCH.register(TransferAckMessage, "_on_transfer_ack")
PEER_DISPATCH.register(AdvertMessage, "_on_advert")
PEER_DISPATCH.register(DataRequest, "_on_data_request")
PEER_DISPATCH.register(DataReply, "_on_data_reply")


class Peer:
    """One TerraDir server in a simulated system."""

    __slots__ = (
        "sid",
        "sys",
        "rt",
        "cfg",
        "ns",
        "rng",
        "stats",
        "owned",
        "maps",
        "metadata",
        "cache",
        "digest",
        "digest_dir",
        "ranking",
        "meter",
        "ingress",
        "absorber",
        "router",
        "store",
        "repl",
        "n_processed",
        "client_hooks",
        "failed",
        "service_mean",
        "rfact",
        "_handlers",
        "_record_injected",
        "_record_drop",
    )

    #: the dispatch registry bound per instance; class attribute so
    #: subclasses can substitute a different registry wholesale.
    dispatch_registry = PEER_DISPATCH

    def __init__(self, sid: int, system, owned: Iterable[int]) -> None:
        self.sid = sid
        self.sys = system
        # the runtime seam: every clock read, callback, and send below
        # goes through this handle, so the same peer runs under the
        # simulator (SimRuntime) or a live event loop (AsyncRuntime)
        self.rt = system.runtime
        cfg = system.cfg
        self.cfg = cfg
        self.ns = system.ns
        self.rng = system.rng_streams.stream(f"peer-{sid}")
        self.stats = system.stats
        # sink hooks for the per-query fast path, bound once: swapping
        # sinks is a construction-time decision, and one cached callable
        # per recording beats an attribute chain per processed event
        self._record_injected = self.stats.record_injected
        self._record_drop = self.stats.record_drop
        self.owned = set(owned)
        # node -> its map; a value is a read-only sequence that writers
        # replace, never mutate, so one ``(sid,)`` tuple can stand for
        # every single-server map of the fleet (DESIGN.md section 11.7)
        self.maps: Dict[int, Sequence[int]] = {}
        self.metadata = MetaStore()
        self.cache = LRUCache(
            cfg.cache_slots if cfg.caching_enabled else 0, rmap=cfg.rmap,
        )
        self.digest: Optional[Digest] = None  # wired by the builder
        self.digest_dir: Optional[DigestDirectory] = None
        self.ranking = NodeRanking(decay=cfg.rank_decay)
        self.meter = BusyWindowLoadMeter(window=cfg.load_window)
        # pipeline components
        self.ingress = IngressQueue(cfg.queue_size)
        self.absorber = SoftStateAbsorber(self)
        self.router = RoutingCore(self)
        self.store = ReplicaStore(self)
        self.repl = ReplicationManager(self)
        self.n_processed = 0
        # client-layer completion callbacks: ("lookup", qid) / ("data", rid)
        self.client_hooks: Dict[Tuple[str, int], object] = {}
        self.failed = False
        self.service_mean = cfg.service_mean  # builder may slow this peer
        # "The replication factor need not be the same for all servers"
        # (paper section 3.4): per-peer override, defaulting to config
        self.rfact = cfg.rfact
        self._handlers = self.dispatch_registry.bind(self)

    # ------------------------------------------------------------------
    # component-owned state, re-exposed (public API compatibility)
    # ------------------------------------------------------------------

    @property
    def queue(self) -> Deque[QueryMessage]:
        """The waiting requests (the ingress FIFO, live view)."""
        return self.ingress.queue

    @property
    def n_queue_drops(self) -> int:
        return self.ingress.n_drops

    @property
    def in_service(self) -> bool:
        return self.ingress.in_service

    @in_service.setter
    def in_service(self, value: bool) -> None:
        self.ingress.in_service = value

    @property
    def replicas(self) -> Dict[int, Replica]:
        return self.store.replicas

    @property
    def hosted_list(self) -> List[int]:
        """Hosted node ids, owned first then replicas (live view).

        Treat as read-only: membership changes must go through the
        store (``adopt_node(s)`` / ``install_replica`` / ``evict_replica``
        / ``store.untrack_owned``) so its ancestor index stays in sync.
        """
        return self.store.hosted_list

    @property
    def adverts_recent(self) -> Dict[int, Deque[int]]:
        return self.store.adverts_recent

    @property
    def known_loads(self) -> Dict[int, Tuple[float, float]]:
        return self.absorber.known_loads

    # ------------------------------------------------------------------
    # hosting state
    # ------------------------------------------------------------------

    def hosts(self, node: int) -> bool:
        """True if this server owns or replicates ``node``."""
        return node in self.owned or node in self.store.replicas

    def iter_hosted(self) -> Iterator[int]:
        """All hosted node ids (owned first, then replicas)."""
        return self.store.iter_hosted()

    @property
    def n_hosted(self) -> int:
        return len(self.owned) + len(self.store.replicas)

    def pinned(self, node: int) -> bool:
        """True if the topology imposes ``node``'s map here: ``node`` is
        a replica on this peer, or a namespace neighbour of a node this
        peer hosts (neighbourhood is symmetric, cross links included).

        Derived from the hosted set rather than counted: O(degree), and
        asked only on the eviction, hand-off and audit paths.
        """
        replicas = self.store.replicas
        if node in replicas:
            return True
        owned = self.owned
        for nbr in self.ns.neighbors(node):
            if nbr in owned or nbr in replicas:
                return True
        return False

    def pin(self, node: int, servers: Iterable[int]) -> None:
        """Keep a neighbor map (routing context of a hosted node):
        create ``node``'s map, or extend it with ``servers`` up to
        ``rmap``."""
        cur = self.maps.get(node)
        entry = list(cur) if cur is not None else []
        rmap = self.cfg.rmap
        for s in servers:
            if s not in entry and len(entry) < rmap:
                entry.append(s)
        if cur is None or len(entry) != len(cur):
            self.maps[node] = tuple(entry)

    def unpin(self, node: int) -> None:
        """Demote ``node``'s map to a cache entry once nothing pins it
        (called for each neighbour of a node this peer stopped hosting).

        Hosted nodes keep their map unconditionally: a node can be both
        hosted and a (pinned) neighbor of another hosted node, and
        losing the last pin must never strip hosted state.
        """
        if self.hosts(node) or self.pinned(node):
            return
        entry = self.maps.pop(node, None)
        if entry and self.cfg.caching_enabled:
            self.cache.put(node, entry)

    def adopt_node(self, node: int) -> None:
        """Take ownership of ``node`` (membership API)."""
        self.adopt_nodes((node,))

    def adopt_nodes(
        self, nodes: Sequence[int], solo: Optional[Sequence[Tuple[int]]] = None
    ) -> None:
        """Take ownership of ``nodes``, in order: everything adoption
        sets up, once per batch (one index write, one pass over the
        digest's bits) -- the builder hands over a server's whole share.

        ``solo`` is the fleet's table of one-server maps (``solo[s] ==
        (s,)``, one tuple per server shared by every peer); without it
        a fresh ``(sid,)`` is stored.
        """
        self.store.track_owned_many(nodes)
        self.owned.update(nodes)
        # the meta record is created on first access (version 0 either
        # way): nothing is materialised for the common never-written node
        maps = self.maps
        sid = self.sid
        mine = (sid,) if solo is None else solo[sid]
        track = self.ranking.track
        for node in nodes:
            track(node)
            entry = maps.get(node)
            if entry is None:
                maps[node] = mine
            elif sid not in entry:
                maps[node] = (sid, *entry)
        if self.digest is not None:
            self.digest.add_many(nodes)

    def pin_contexts(
        self,
        nodes: Sequence[int],
        owner: Sequence[int],
        solo: Sequence[Tuple[int]],
    ) -> None:
        """Pin the routing context of every node of ``nodes`` at its
        owner: ``pin(nbr, (owner[nbr],))`` for each neighbour in
        :meth:`Namespace.contexts <repro.namespace.tree.Namespace.contexts>`
        order, in one loop (the builder's wiring of a server's share).
        A new map is the shared ``solo[owner[nbr]]`` (see
        :meth:`adopt_nodes`).
        """
        maps = self.maps
        rmap = self.cfg.rmap
        for nbr in self.ns.contexts(nodes):
            cur = maps.get(nbr)
            if cur is None:
                maps[nbr] = solo[owner[nbr]] if rmap > 0 else ()
            elif len(cur) < rmap and owner[nbr] not in cur:
                maps[nbr] = (*cur, owner[nbr])

    def bump_meta(self, node: int) -> int:
        """Owner-only meta-data version bump; replicas converge lazily."""
        if node not in self.owned:
            raise KeyError(f"server {self.sid} does not own node {node}")
        meta = self.metadata.meta(node)
        meta.version += 1
        return meta.version

    def meta_version_of(self, node: int) -> int:
        """Newest meta-data version this server knows for ``node``."""
        if node in self.owned:
            return self.metadata.meta(node).version
        rep = self.store.replicas.get(node)
        return rep.meta_version if rep is not None else 0

    # ------------------------------------------------------------------
    # replica lifecycle (delegated to the store)
    # ------------------------------------------------------------------

    def install_replica(self, payload: ReplicaPayload, now: float) -> None:
        """Install a replica with full routing context (paper section 2.3)."""
        self.store.install(payload, now)

    def evict_replica(self, node: int, now: float) -> None:
        """Locally delete a replica; other servers learn lazily."""
        self.store.evict(node, now)

    def build_replica_payload(self, node: int) -> Optional[ReplicaPayload]:
        """Snapshot everything a target needs to host ``node``."""
        return self.store.build_payload(node)

    def note_replica_created(self, node: int, target: int, now: float) -> None:
        """Source-side bookkeeping after a target confirmed installation."""
        self.store.note_created(node, target, now)

    def evict_idle_replicas(self, now: float) -> int:
        """Timed eviction of long-unused replicas (section 3.5)."""
        return self.store.evict_idle(now)

    # ------------------------------------------------------------------
    # map management
    # ------------------------------------------------------------------

    def merge_map(self, node: int, incoming: Iterable[int]) -> None:
        """Merge an incoming map into whatever we keep for ``node``.

        Applies digest-based map filtering (paper section 3.6.2): known
        digests that answer "no" for ``node`` veto their server's entry.
        A peer that keeps neither a map nor a cache entry for ``node``
        (most hops of most queries) has nothing to merge into and
        returns before filtering.
        """
        entry = self.maps.get(node)
        cached = None
        if entry is None:
            if not self.cfg.caching_enabled:
                return
            cached = self.cache.peek(node)
            if cached is None:
                return
        incoming = self._filter_servers(node, incoming)
        if not incoming:
            return
        advertised: Sequence[int] = self.store.adverts_recent.get(node, ())
        if entry is None:
            self.cache.replace(
                node,
                merge_maps(cached, incoming, self.cfg.rmap, self.rng, advertised),
            )
            return
        if self.sid in entry and self.hosts(node):
            # a host never merges itself out of its own node's map
            advertised = (self.sid, *advertised)
        self.maps[node] = merge_maps(
            entry, incoming, self.cfg.rmap, self.rng, advertised
        )

    def _filter_servers(self, node: int, servers: Iterable[int]) -> List[int]:
        """Digest map filtering: drop entries whose digest denies ``node``.

        With ``cfg.oracle_maps`` the filter consults ground truth
        instead -- the paper's section 4.4 "oracle" comparison point.
        """
        if self.cfg.oracle_maps:
            peers = self.sys.peers
            return [s for s in servers if peers[s].hosts(node)]
        ddir = self.digest_dir
        if ddir is None or not self.cfg.digests_enabled:
            return list(servers)
        return ddir.undenied(servers, node, keep=self.sid)

    # ------------------------------------------------------------------
    # message delivery (transport entry point)
    # ------------------------------------------------------------------

    def deliver(self, msg) -> None:
        """Transport hands every inbound message here.

        Routing is a bound-handler dict probe (snapshot of
        :data:`PEER_DISPATCH` taken at construction); an unregistered
        message type raises :class:`UnknownMessageError`.
        """
        if self.failed:
            return  # fail-stop: inbound traffic is lost
        handler = self._handlers.get(msg.__class__)
        if handler is None:
            raise UnknownMessageError(
                f"peer {self.sid}: no handler registered for message type "
                f"{msg.__class__.__name__}"
            )
        handler(msg)

    def send_control(self, dest: int, msg) -> None:
        self.rt.send(dest, msg, control=True)

    # -- dispatch handlers (registered in PEER_DISPATCH) ----------------

    def _on_response(self, msg: ResponseMessage) -> None:
        self.router.on_response(msg)

    def _on_probe(self, msg: ProbeMessage) -> None:
        self.repl.on_probe(msg, self.rt.now)

    def _on_probe_reply(self, msg: ProbeReplyMessage) -> None:
        self.repl.on_probe_reply(msg, self.rt.now)

    def _on_transfer(self, msg: TransferMessage) -> None:
        self.repl.on_transfer(msg, self.rt.now)

    def _on_transfer_ack(self, msg: TransferAckMessage) -> None:
        self.repl.on_ack(msg, self.rt.now)

    def _on_advert(self, msg: AdvertMessage) -> None:
        self.absorber.absorb_advert(msg.node, msg.servers)

    def _on_data_request(self, msg: DataRequest) -> None:
        self.router.on_data_request(msg)

    def _on_data_reply(self, msg: DataReply) -> None:
        hook = self.client_hooks.pop(("data", msg.rid), None)
        if hook is not None:
            hook(msg)

    # ------------------------------------------------------------------
    # query queueing and service
    # ------------------------------------------------------------------

    def inject(self, dest: int, qid: int) -> None:
        """A client initiates a lookup for ``dest`` at this server."""
        now = self.rt.now
        self._record_injected(now)
        msg = QueryMessage(qid, dest, self.sid, now)
        msg.via = -1
        self._on_query(msg)

    def _on_query(self, msg: QueryMessage) -> None:
        """A query arrives, from a client or a peer (dispatch handler)."""
        ingress = self.ingress
        if not ingress.in_service:
            self._start_service(msg)
            return
        if not ingress.offer(msg):
            self._record_drop(self.rt.now, "queue")

    def _start_service(self, msg: QueryMessage) -> None:
        self.ingress.in_service = True
        rt = self.rt
        now = rt.now
        self.meter.service_started(now)
        svc = exponential(self.rng, self.service_mean)
        rt.schedule(now + svc, self._finish_service, msg)

    def _finish_service(self, msg: QueryMessage) -> None:
        ingress = self.ingress
        if self.failed or not ingress.in_service:
            return  # server died mid-service; the request dies with it
        now = self.rt.now
        self.meter.service_finished(now)
        self.n_processed += 1
        self.router.process(msg)
        self.repl.maybe_trigger(now)
        ingress.in_service = False
        if ingress.queue:
            self._start_service(ingress.pop())

    # ------------------------------------------------------------------
    # periodic maintenance (driven by the system)
    # ------------------------------------------------------------------

    def roll_window(self, now: float) -> float:
        """Close the current load window; returns the window's busy fraction."""
        return self.meter.roll(now)

    def rescale_ranking(self) -> None:
        self.ranking.rescale()

    def __repr__(self) -> str:
        return (
            f"Peer(sid={self.sid}, owned={len(self.owned)}, "
            f"replicas={len(self.store.replicas)}, "
            f"load={self.meter.measured():.2f})"
        )
