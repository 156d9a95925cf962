"""Message types exchanged between TerraDir servers.

Two traffic classes exist:

* **Query traffic** (:class:`QueryMessage`, :class:`ResponseMessage`)
  competes for each server's bounded request queue and exponential
  service time; queries arriving at a full queue are dropped.
* **Control traffic** (:data:`CONTROL_TYPES`: the replication
  protocol's probes, transfers, acks and adverts) bypasses the request
  queue -- the paper reports load-balancing messages are at least two
  orders of magnitude rarer than queries, and every transport counts
  them in ``n_control_sent`` to verify exactly that claim.

All in-band soft-state dissemination is piggybacked on query messages:
the sender's load sample, its digest snapshot, the destination node's
map as merged so far, new-replica advertisements, and the query path
walked so far (for path-propagation caching).

**Wire declarations.**  Every class here declares its fields once, in
wire order, as a ``__slots__`` dict ``{field: kind}`` (the kinds are
:mod:`repro.net.codec`'s, which compiles them at import).  Adding a wire
message is one declaration here and a type id in :data:`WIRE_TYPES`;
a control class also goes into :data:`CONTROL_TYPES`.  A peer handles
the class with the method named after it (``FooBarMessage`` ->
``Peer._on_foo_bar``); without one, delivery raises
:class:`~repro.server.peer.UnknownMessageError`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.filters.bloom import Snapshot


class Advertisement:
    """A "server X now replicates node v" notice piggybacked on messages."""

    __slots__ = {"node": "i32", "server": "i32"}

    def __init__(self, node: int, server: int) -> None:
        self.node = node
        self.server = server

    def __repr__(self) -> str:
        return f"Advertisement(node={self.node}, server={self.server})"


class AdvertMessage:
    """Back-propagated new-replica notice (paper section 3.7).

    When s1 forwards a query to s2 on behalf of node v and s1 recently
    created replicas for v, s1 lets s2 know about them -- and vice
    versa: we send it from the *processing* server back to the message
    sender, off the critical path.
    """

    __slots__ = {"node": "i32", "servers": "list[int]"}

    def __init__(self, node: int, servers: List[int]) -> None:
        self.node = node
        self.servers = servers

    def __repr__(self) -> str:
        return f"AdvertMessage(node={self.node}, servers={self.servers})"


class QueryMessage:
    """A lookup query in flight."""

    __slots__ = {
        "qid": "i64",  # unique query id
        "dest": "i32",  # destination node id
        "origin": "i32",  # server where the query was initiated
        "created_at": "f64",  # simulation time of initiation
        "hops": "i32",  # network hops taken so far
        "sender": "i32",  # server that forwarded it (piggyback source)
        "sender_load": "f64",  # sender's load sample at send time
        # hops that landed on a server no longer hosting the node it was
        # selected for (routing accuracy metric)
        "stale_hops": "i32",
        # the node on whose behalf it was forwarded (the routing
        # candidate the sender selected); -1 at injection
        "via": "i32",
        "sender_digest": ("digest", "sender"),  # (version, vector)
        "dest_map": "list[int]",  # merged map for the destination node
        # (node, server) pairs logically visited so far, for
        # path-propagation caching (paper section 2.4)
        "path": (list, ("i32", "i32")),
        # new-replica advertisements back-/forward-propagated
        "adverts": (list, Advertisement),
    }

    def __init__(self, qid: int, dest: int, origin: int, created_at: float) -> None:
        self.qid = qid
        self.dest = dest
        self.origin = origin
        self.created_at = created_at
        self.hops = 0
        self.sender = origin
        self.sender_load = 0.0
        self.sender_digest: Optional[Snapshot] = None
        self.dest_map: List[int] = []
        self.path: List[Tuple[int, int]] = []
        self.adverts: List[Advertisement] = []
        self.stale_hops = 0
        self.via = -1

    def __repr__(self) -> str:
        return (
            f"QueryMessage(qid={self.qid}, dest={self.dest}, "
            f"origin={self.origin}, hops={self.hops})"
        )


class ResponseMessage:
    """Query completion sent directly back to the origin server.

    Carries the resolved node's map (the lookup result: name resolution
    to a set of hosting servers) and the full query path so the origin
    can install path-propagated cache entries.
    """

    __slots__ = {
        "qid": "i64", "dest": "i32", "origin": "i32", "created_at": "f64",
        "hops": "i32", "resolver": "i32", "stale_hops": "i32",
        "meta_version": "i64", "sender_load": "f64",
        "sender_digest": ("digest", "resolver"),
        "dest_map": "list[int]",
        "path": (list, ("i32", "i32")),
    }

    def __init__(
        self,
        query: QueryMessage,
        resolver: int,
        dest_map: List[int],
        meta_version: int = 0,
    ) -> None:
        self.qid = query.qid
        self.dest = query.dest
        self.origin = query.origin
        self.created_at = query.created_at
        self.hops = query.hops
        self.resolver = resolver
        self.dest_map = dest_map
        self.path = query.path
        self.stale_hops = query.stale_hops
        self.sender_load = 0.0
        self.sender_digest: Optional[Snapshot] = None
        self.meta_version = meta_version


class ProbeMessage:
    """Step 2 of replica creation: overloaded server asks a candidate's load."""

    __slots__ = {"session": "i64", "src": "i32", "src_load": "f64"}

    def __init__(self, session: int, src: int, src_load: float) -> None:
        self.session = session
        self.src = src
        self.src_load = src_load


class ProbeReplyMessage:
    """Candidate's reply: its actual load and willingness to host replicas."""

    __slots__ = {"session": "i64", "src": "i32", "load": "f64", "willing": "bool"}

    def __init__(self, session: int, src: int, load: float, willing: bool) -> None:
        self.session = session
        self.src = src
        self.load = load
        self.willing = willing


class ReplicaPayload:
    """Everything needed to install one replica on the target server.

    Per the paper's constraints (section 2.3): node meta-data, a map for
    the node itself, plus the node's *context* -- a map for each of its
    namespace neighbors -- so routing through the replica is functionally
    equivalent to routing through the original.
    """

    __slots__ = {
        "node": "i32", "meta_version": "i64", "node_map": "list[int]",
        "context": (dict, ("i32", "list[int]")), "meta": "meta",
    }

    def __init__(
        self,
        node: int,
        meta_version: int,
        node_map: List[int],
        context: Dict[int, List[int]],
        meta: Any = None,
    ) -> None:
        self.node = node
        self.meta_version = meta_version
        self.node_map = node_map
        self.context = context
        self.meta = meta


class TransferMessage:
    """Step 3: the replica payloads shipped to the chosen target server.

    ``load_delta`` is the ideal load shift ``(ls - lt) / 2`` the source
    computed; the target books it as its hysteresis adjustment (step 4).
    """

    __slots__ = {
        "session": "i64", "src": "i32", "load_delta": "f64",
        "payloads": (list, ReplicaPayload),
    }

    def __init__(
        self,
        session: int,
        src: int,
        payloads: List[ReplicaPayload],
        load_delta: float = 0.0,
    ) -> None:
        self.session = session
        self.src = src
        self.payloads = payloads
        self.load_delta = load_delta


class TransferAckMessage:
    """Target's confirmation listing the node ids actually installed."""

    __slots__ = {"session": "i64", "src": "i32", "installed": "list[int]"}

    def __init__(self, session: int, src: int, installed: List[int]) -> None:
        self.session = session
        self.src = src
        self.installed = installed


class DataRequest:
    """Client data/meta retrieval: the second step of a TerraDir access.

    A lookup resolves a name to a map; the client then requests the
    node's data (or fresh meta-data) from one of the mapped servers.
    Routing replicas hold no data, so a non-owner target answers with a
    redirect carrying its own map for the node.
    """

    __slots__ = {"rid": "i64", "node": "i32", "origin": "i32", "want_meta": "bool"}

    def __init__(self, rid: int, node: int, origin: int,
                 want_meta: bool = False) -> None:
        self.rid = rid
        self.node = node
        self.origin = origin
        self.want_meta = want_meta


class ClientLookup:
    """Live-mode client plane: a lookup request sent over a socket.

    In the simulator clients call :meth:`System.inject` directly; a
    live client instead frames one of these to its home server, which
    injects the query locally and answers with a
    :class:`ClientLookupReply` carrying the lookup outcome.  ``cqid``
    is the *client's* correlation id (per-connection), distinct from
    the server-minted query id.
    """

    __slots__ = {"cqid": "i64", "node": "i32"}

    def __init__(self, cqid: int, node: int) -> None:
        self.cqid = cqid
        self.node = node

    def __repr__(self) -> str:
        return f"ClientLookup(cqid={self.cqid}, node={self.node})"


class ClientLookupReply:
    """Live-mode client plane: the home server's answer to a lookup.

    ``ok=False`` means the query was dropped or timed out inside the
    cluster (the home server gave up after its server-side deadline);
    the remaining fields mirror the simulator's ``LookupResult``.
    """

    __slots__ = {
        "cqid": "i64", "node": "i32", "ok": "bool", "meta_version": "i64",
        "hops": "i32", "latency": "f64", "servers": "list[int]",
    }

    def __init__(
        self,
        cqid: int,
        node: int,
        ok: bool,
        servers: Optional[List[int]] = None,
        meta_version: int = 0,
        hops: int = 0,
        latency: float = 0.0,
    ) -> None:
        self.cqid = cqid
        self.node = node
        self.ok = ok
        self.servers = servers if servers is not None else []
        self.meta_version = meta_version
        self.hops = hops
        self.latency = latency

    def __repr__(self) -> str:
        return (
            f"ClientLookupReply(cqid={self.cqid}, node={self.node}, "
            f"ok={self.ok}, hops={self.hops})"
        )


class DataReply:
    """Answer to a :class:`DataRequest`.

    Exactly one of the outcomes applies: ``data``/``meta`` filled in
    (the target owns the node), or ``redirect_map`` filled in (the
    target does not export the data; try one of these servers).
    """

    __slots__ = {
        "rid": "i64", "node": "i32", "responder": "i32",
        "data": "data", "meta": "meta", "redirect_map": "list[int]",
    }

    def __init__(self, rid: int, node: int, responder: int) -> None:
        self.rid = rid
        self.node = node
        self.responder = responder
        self.data = None
        self.meta = None
        self.redirect_map: List[int] = []


#: type id -> wire class: the closed allowlist both framings carry.  Ids
#: are wire format, never reused; 1-9 are the peer plane (a ``Peer``
#: method handles each), 10-11 the live client plane.
WIRE_TYPES: Dict[int, type] = {
    1: QueryMessage,
    2: ResponseMessage,
    3: AdvertMessage,
    4: ProbeMessage,
    5: ProbeReplyMessage,
    6: TransferMessage,
    7: TransferAckMessage,
    8: DataRequest,
    9: DataReply,
    10: ClientLookup,
    11: ClientLookupReply,
}

#: the replication protocol's classes: every transport counts them in
#: ``n_control_sent``, everything else in ``n_sent``
CONTROL_TYPES: FrozenSet[type] = frozenset({
    AdvertMessage, ProbeMessage, ProbeReplyMessage, TransferMessage,
    TransferAckMessage,
})
