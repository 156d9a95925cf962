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
        "solo",
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
        # node -> its map where it differs from the default map
        # ``solo[owner[v]]`` (:meth:`map_of`); a value is a read-only
        # sequence that writers replace, never mutate (DESIGN.md 11.7)
        self.solo = system.solo
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
        return node in self.store.replicas or self._beside_hosted(node)

    def _beside_hosted(self, node: int) -> bool:
        """True if a namespace neighbour of ``node`` is hosted here,
        read off the namespace arrays (no neighbour tuple is built)."""
        owner, sid, replicas = self.owner, self.sid, self.store.replicas
        ns = self.ns
        up = ns.parent[node]
        # the root is its own parent: it has no neighbour above
        if up != node and (owner[up] == sid or up in replicas):
            return True
        arena, off = ns.child_arena, ns.child_off
        for i in range(off[node], off[node + 1]):
            kid = arena[i]
            if owner[kid] == sid or kid in replicas:
                return True
        return False

    def pin(
        self, node: int, servers: Iterable[int],
        cur: Optional[Sequence[int]],
    ) -> None:
        """Keep a neighbor map (routing context of a hosted node):
        ``cur``, the map in effect before the hosting change that pins
        ``node`` (``None`` for none), extended with ``servers`` up to
        ``rmap``, or a new map of them."""
        entry = list(cur) if cur is not None else []
        rmap = self.cfg.rmap
        for s in servers:
            if s not in entry and len(entry) < rmap:
                entry.append(s)
        self.set_map(node, cur if cur is not None and len(entry) == len(cur)
                     else tuple(entry))

    def unpin(self, node: int) -> None:
        """Demote ``node``'s map to a cache entry once nothing pins it
        (called for each neighbour of a node this peer stopped hosting).

        Hosted nodes keep their map unconditionally: a node can be both
        hosted and a (pinned) neighbor of another hosted node, and
        losing the last pin must never strip hosted state.
        """
        if self.hosts(node) or self.pinned(node):
            return
        entry = self.drop_map(node)
        if entry and self.cfg.caching_enabled:
            self.cache.put(node, entry)

    def adopt_nodes(self, nodes: Sequence[int]) -> None:
        """Set up what hosting ``nodes`` needs once the owner table
        names this server, in order and once per batch (one index
        write, one pass over the digest's bits) -- the builder hands
        over a server's whole share.  Their maps, and their neighbours',
        are the derived defaults (:meth:`map_of`): nothing is written.
        """
        self.store.track_owned_many(nodes)
        if self.cfg.rmap <= 0:
            # no one-server default then; an owned node still leads
            # its own map
            mine = self.solo[self.sid]
            for node in nodes:
                self.maps[node] = mine
        # the meta record is created on first access (version 0 either
        # way): nothing is materialised for the common never-written node
        if self.digest is not None:
            self.digest.add_many(nodes)

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

    def map_of(self, node: int) -> Optional[Sequence[int]]:
        """The map this peer keeps for ``node``, or ``None`` for none.

        ``maps`` is an overlay: it holds only the entries that differ
        from the default.  A node this peer hosts, or a namespace
        neighbour of one, has a map, by default its owner's one-server
        map ``solo[owner[node]]`` (``()`` when ``rmap`` is 0), read off
        the live owner table (DESIGN.md section 11.7).
        """
        entry = self.maps.get(node)
        if entry is not None:
            return entry
        # the key test, written out (this runs on every hop): ``node``
        # or its parent hosted (the root is its own parent), else a child
        owner, sid, replicas = self.owner, self.sid, self.store.replicas
        ns = self.ns
        up = ns.parent[node]
        if not (owner[node] == sid or owner[up] == sid or replicas and (
                node in replicas or up in replicas)):
            arena = ns.child_arena
            off = ns.child_off
            for i in range(off[node], off[node + 1]):
                kid = arena[i]
                if owner[kid] == sid or replicas and kid in replicas:
                    break
            else:
                return None
        return self.solo[owner[node]] if self.cfg.rmap > 0 else ()

    def set_map(self, node: int, entry: Sequence[int]) -> None:
        """Replace ``node``'s map with the read-only ``entry``: stored in
        the overlay unless it equals the default map of a node this peer
        keeps a map for (``entry`` may be a list, the default a tuple)."""
        if self.cfg.rmap > 0:
            same = len(entry) == 1 and entry[0] == self.owner[node]
        else:
            same = not entry
        # the key test only for an entry equal to the default: most
        # writes (merges, adverts, notes) store two or more servers
        if same and (self.hosts(node) or self._beside_hosted(node)):
            self.maps.pop(node, None)
        else:
            self.maps[node] = entry

    def drop_map(self, node: int) -> Sequence[int]:
        """Pop ``node``'s map and return the one in effect until now.

        For a node that stops having a map here: the caller has just
        ended the hosting that gave it one, so the default is read as
        it stood (the owner of ``node`` has not changed).
        """
        entry = self.maps.pop(node, None)
        if entry is None:
            return self.solo[self.owner[node]] if self.cfg.rmap > 0 else ()
        return entry

    def merge_map(
        self, node: int, incoming: Iterable[int]
    ) -> Optional[Sequence[int]]:
        """Merge an incoming map into whatever we keep for ``node``;
        returns the map kept for ``node`` afterwards (:meth:`map_of`).

        Applies digest-based map filtering (paper section 3.6.2): known
        digests that answer "no" for ``node`` veto their server's entry.
        A peer that keeps neither a map nor a cache entry for ``node``
        (most hops of most queries) has nothing to merge into and
        returns before filtering.
        """
        entry = self.map_of(node)
        cached = None
        if entry is None:
            if not self.cfg.caching_enabled:
                return None
            cached = self.cache.peek(node)
            if cached is None:
                return None
        incoming = self._filter_servers(node, incoming)
        if not incoming:
            return entry
        advertised: Sequence[int] = self.store.adverts_recent.get(node, ())
        if entry is None:
            self.cache.replace(
                node,
                merge_maps(cached, incoming, self.cfg.rmap, self.rng, advertised),
            )
            return None
        if self.sid in entry and self.hosts(node):
            # a host never merges itself out of its own node's map
            advertised = (self.sid, *advertised)
        entry = merge_maps(entry, incoming, self.cfg.rmap, self.rng, advertised)
        self.set_map(node, entry)
        return entry

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
