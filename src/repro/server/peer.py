"""The TerraDir server (peer): the message pipeline's composition.

A peer owns a set of namespace nodes, may replicate others, and
processes one query at a time from a bounded FIFO request queue
(queries arriving in excess are dropped).  The work is layered into
focused components, composed here:

* :class:`~repro.server.ingress.IngressQueue` -- the bounded FIFO, the
  message in service and the drop accounting (the M/M/1/K station);
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

An inbound message reaches the method named after its class
(``TransferAckMessage`` -> ``_on_transfer_ack``), the way
``ast.NodeVisitor`` finds ``visit_<Class>``: declaring a wire class in
:mod:`repro.net.message` is all a handler needs to be found.  Control
traffic (replication probes/transfers/acks, back-propagated
advertisements) and query responses bypass the request queue: they
are rare, tiny, and the paper accounts for them separately.

Each piece of state has one owner, and callers name it.  The peer
keeps the routing state every component shares (maps, cache, digests,
ranking, metadata, the in-band load table ``known_loads``); the queue
and the message in service are ``peer.ingress``'s, the replica table,
the hosted list and the advert record ``peer.store``'s.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
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
from repro.net.message import (
    WIRE_TYPES,
    AdvertMessage,
    DataReply,
    DataRequest,
    ProbeMessage,
    ProbeReplyMessage,
    QueryMessage,
    ResponseMessage,
    TransferAckMessage,
    TransferMessage,
)
from repro.namespace.meta import MetaStore
from repro.server.cache import LRUCache
from repro.server.ingress import IngressQueue
from repro.server.replica_store import ReplicaStore
from repro.server.routing_core import RoutingCore
from repro.server.softstate import SoftStateAbsorber
from repro.sim.rng import exponential

if TYPE_CHECKING:
    from repro.cluster.system import System

__all__ = ["Peer", "UnknownMessageError"]


class UnknownMessageError(TypeError):
    """Raised when a peer has no handler for a message's class."""


def _handler_name(cls: type) -> str:
    """``_on_`` plus the snake_case class name, less a ``Message``
    suffix: ``TransferAckMessage`` -> ``_on_transfer_ack``."""
    name = cls.__name__
    if name.endswith("Message"):
        name = name[: -len("Message")]
    return "_on" + "".join("_" + c.lower() if c.isupper() else c for c in name)


#: wire class -> the name of the ``Peer`` method that handles it
_HANDLER_NAMES = {cls: _handler_name(cls) for cls in WIRE_TYPES.values()}


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
        "owner",
        "maps",
        "metadata",
        "cache",
        "digest",
        "digest_dir",
        "ranking",
        "known_loads",
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

    def __init__(self, sid: int, system: System) -> None:
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
        # the fleet's one node -> owner table (``System.owner``): what
        # this peer owns is read there, never copied (DESIGN.md 11.7)
        self.owner = system.owner
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
        self.ranking = NodeRanking()
        # server id -> (last load sample, sample time): written by the
        # builder's bootstrap, the absorber, replication and membership
        self.known_loads: Dict[int, Tuple[float, float]] = {}
        self.meter = BusyWindowLoadMeter(window=cfg.load_window)
        # pipeline components
        self.ingress = IngressQueue(cfg.queue_size)
        self.absorber = SoftStateAbsorber(self)
        self.router = RoutingCore(self)
        self.store = ReplicaStore(self)
        self.repl = ReplicationManager(self)
        self.n_processed = 0
        # client-layer completion callbacks: ("lookup", qid) / ("data", rid)
        self.client_hooks: Dict[Tuple[str, int], Callable[..., None]] = {}
        self.failed = False
        self.service_mean = cfg.service_mean  # builder may slow this peer
        # "The replication factor need not be the same for all servers"
        # (paper section 3.4): per-peer override, defaulting to config
        self.rfact = cfg.rfact
        # bound once per peer; a subclass overrides a handler by
        # overriding the method
        self._handlers = {
            cls: getattr(self, name)
            for cls, name in _HANDLER_NAMES.items()
            if hasattr(self, name)
        }

    # ------------------------------------------------------------------
    # hosting state
    # ------------------------------------------------------------------

    def hosts(self, node: int) -> bool:
        """True if this server owns or replicates ``node``."""
        return self.owner[node] == self.sid or node in self.store.replicas

    def owns(self, node: int) -> bool:
        """True if this server owns ``node``."""
        return self.owner[node] == self.sid

    def owned_nodes(self) -> List[int]:
        """The nodes this server owns, in adoption order: the front of
        the hosted list, which holds them before the replicas."""
        store = self.store
        return store.hosted_list[: len(store.hosted_list) - len(store.replicas)]

    def pinned(self, node: int) -> bool:
        """True if the topology imposes ``node``'s map here: ``node`` is
        a replica on this peer, or a namespace neighbour of a node this
        peer hosts (tree neighbourhood is symmetric).

        Derived from the hosted set rather than counted: O(degree), and
        asked only on the eviction, hand-off and audit paths.
        """
        replicas = self.store.replicas
        if node in replicas:
            return True
        owner, sid = self.owner, self.sid
        for nbr in self.ns.neighbors(node):
            if owner[nbr] == sid or nbr in replicas:
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

    def adopt_nodes(
        self, nodes: Sequence[int], solo: Optional[Sequence[Tuple[int]]] = None
    ) -> None:
        """Set up what hosting ``nodes`` needs once the owner table
        names this server, in order and once per batch (one index
        write, one pass over the digest's bits) -- the builder hands
        over a server's whole share.

        ``solo`` is the fleet's table of one-server maps (``solo[s] ==
        (s,)``, one tuple per server shared by every peer); without it
        a fresh ``(sid,)`` is stored.
        """
        self.store.track_owned_many(nodes)
        # the meta record is created on first access (version 0 either
        # way): nothing is materialised for the common never-written node
        maps = self.maps
        sid = self.sid
        mine = (sid,) if solo is None else solo[sid]
        for node in nodes:
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
        ids: Sequence[int],
    ) -> None:
        """Pin the routing context of every node of ``nodes`` at its
        owner: ``pin(nbr, (owner[nbr],))`` for each neighbour in
        :meth:`Namespace.contexts <repro.namespace.tree.Namespace.contexts>`
        order, in one loop (the builder's wiring of a server's share).
        A new map is the shared ``solo[owner[nbr]]`` (see
        :meth:`adopt_nodes`), and its key is ``ids[nbr]``, the fleet's
        one int object for that id: the int a namespace array yields is
        a fresh object per read.
        """
        maps = self.maps
        rmap = self.cfg.rmap
        for nbr in self.ns.contexts(nodes):
            cur = maps.get(nbr)
            if cur is None:
                maps[ids[nbr]] = solo[owner[nbr]] if rmap > 0 else ()
            elif len(cur) < rmap and owner[nbr] not in cur:
                maps[nbr] = (*cur, owner[nbr])

    def bump_meta(self, node: int) -> int:
        """Owner-only meta-data version bump; replicas converge lazily."""
        if not self.owns(node):
            raise KeyError(f"server {self.sid} does not own node {node}")
        meta = self.metadata.meta(node)
        meta.version += 1
        version: int = meta.version
        return version

    def meta_version_of(self, node: int) -> int:
        """Newest meta-data version this server knows for ``node``."""
        if self.owns(node):
            version: int = self.metadata.read(node).version
            return version
        rep = self.store.replicas.get(node)
        return rep.meta_version if rep is not None else 0

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

    def deliver(self, msg: object) -> None:
        """Transport hands every inbound message here.

        Routing is a bound-handler dict probe (bound at construction);
        a class with no ``_on_`` method raises :class:`UnknownMessageError`.
        """
        if self.failed:
            return  # fail-stop: inbound traffic is lost
        handler = self._handlers.get(msg.__class__)
        if handler is None:
            raise UnknownMessageError(
                f"peer {self.sid}: no handler for message type "
                f"{msg.__class__.__name__}"
            )
        handler(msg)

    # -- handlers, one per peer-plane class, found by name ---------------

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
        """A client initiates a lookup for ``dest`` at this server; at a
        failed server the lookup is lost on arrival."""
        now = self.rt.now
        self._record_injected(now)
        if self.failed:
            self._record_drop(now, "failure")
            return
        msg = QueryMessage(qid, dest, self.sid, now)
        msg.via = -1
        self._on_query(msg)

    def _on_query(self, msg: QueryMessage) -> None:
        """A query arrives, from a client or a peer."""
        ingress = self.ingress
        if ingress.in_service is None:
            self._start_service(msg)
            return
        if not ingress.offer(msg):
            self._record_drop(self.rt.now, "queue")

    def _start_service(self, msg: QueryMessage) -> None:
        self.ingress.in_service = msg
        rt = self.rt
        now = rt.now
        self.meter.service_started(now)
        svc = exponential(self.rng, self.service_mean)
        rt.schedule(now + svc, self._finish_service, msg)

    def _finish_service(self, msg: QueryMessage) -> None:
        ingress = self.ingress
        if msg is not ingress.in_service:
            return  # the server failed mid-service; the request died with it
        now = self.rt.now
        self.meter.service_finished(now)
        self.n_processed += 1
        self.router.process(msg)
        self.repl.maybe_trigger(now)
        ingress.in_service = None
        if ingress.queue:
            self._start_service(ingress.pop())

    # ------------------------------------------------------------------
    # periodic maintenance (driven by the system)
    # ------------------------------------------------------------------

    def evict_idle_replicas(self, now: float) -> int:
        """Timed eviction of long-unused replicas (section 3.5)."""
        return self.store.evict_idle(now)

    def roll_window(self, now: float) -> float:
        """Close the current load window; returns the window's busy fraction."""
        return self.meter.roll(now)

    def rescale_ranking(self) -> None:
        self.ranking.rescale()

    def __repr__(self) -> str:
        return (
            f"Peer(sid={self.sid}, owned={len(self.owned_nodes())}, "
            f"replicas={len(self.store.replicas)}, "
            f"load={self.meter.measured():.2f})"
        )
