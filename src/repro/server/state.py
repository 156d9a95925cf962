"""Server-node relationships and their state matrix (paper Table 1).

Table 1 of the paper fixes exactly which state a server maintains for a
node, per relationship::

    Node State     Name  Map  Data  Meta  Context
    Owned           x     x    x     x      x
    Replicated      x     x          x      x
    Neighboring     x     x
    Cached          x     x

Cached and neighboring nodes are similar except that cached entries can
be arbitrarily replaced while neighbor maps are imposed by the topology
(here: pinned).  :func:`state_kinds` computes the matrix row for a live
peer/node pair so tests and the Table-1 benchmark can audit a running
system against the paper's specification.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, FrozenSet

if TYPE_CHECKING:
    from repro.server.peer import Peer


class Relationship(enum.Enum):
    """The relationship of a server to a node."""

    OWNED = "owned"
    REPLICATED = "replicated"
    NEIGHBORING = "neighboring"
    CACHED = "cached"
    NONE = "none"


#: Paper Table 1: state kind -> set of state columns maintained.
STATE_MATRIX: Dict[Relationship, FrozenSet[str]] = {
    Relationship.OWNED: frozenset({"name", "map", "data", "meta", "context"}),
    Relationship.REPLICATED: frozenset({"name", "map", "meta", "context"}),
    Relationship.NEIGHBORING: frozenset({"name", "map"}),
    Relationship.CACHED: frozenset({"name", "map"}),
    Relationship.NONE: frozenset(),
}


def relationship_of(peer: Peer, node: int) -> Relationship:
    """Classify ``peer``'s relationship to ``node`` (most specific wins)."""
    if node in peer.owned:
        return Relationship.OWNED
    if node in peer.store.replicas:
        return Relationship.REPLICATED
    if peer.pinned(node):
        return Relationship.NEIGHBORING
    if node in peer.cache:
        return Relationship.CACHED
    return Relationship.NONE


def state_kinds(peer: Peer, node: int) -> FrozenSet[str]:
    """The state columns ``peer`` actually maintains for ``node``.

    * ``name`` -- the server can refer to the node (it appears in any of
      its tables),
    * ``map`` -- a node map is kept,
    * ``data`` -- node data (only the owner exports data),
    * ``meta`` -- node meta-data (owner and replicas),
    * ``context`` -- maps for all the node's namespace neighbors, i.e.
      routing through this server is functionally equivalent to routing
      through the owner.
    """
    rel = relationship_of(peer, node)
    if rel is Relationship.NONE:
        return frozenset()
    kinds = {"name"}
    if node in peer.maps or node in peer.cache:
        kinds.add("map")
    if rel is Relationship.OWNED:
        kinds.add("data")
    if rel in (Relationship.OWNED, Relationship.REPLICATED):
        kinds.add("meta")
        # context: a map for every namespace neighbor must be present
        if all(nbr in peer.maps for nbr in peer.ns.neighbors(node)):
            kinds.add("context")
    return frozenset(kinds)


def audit_peer(peer: Peer) -> Dict[Relationship, int]:
    """Count ``peer``'s nodes per relationship and verify Table 1 holds.

    Returns the per-relationship node counts; raises AssertionError if
    any live node's maintained state deviates from the paper's matrix.
    """
    counts: Dict[Relationship, int] = {r: 0 for r in Relationship}
    # hosted nodes and everything they pin (their namespace neighbours)
    hosted = peer.store.hosted_list
    seen = set(hosted) | set(peer.ns.contexts(hosted))
    seen |= set(peer.cache.nodes())
    for node in seen:
        rel = relationship_of(peer, node)
        counts[rel] += 1
        kinds = state_kinds(peer, node)
        expected = STATE_MATRIX[rel]
        if not kinds <= expected | {"map"}:
            raise AssertionError(
                f"peer {peer.sid} node {node}: state {kinds} exceeds "
                f"Table 1 allowance {expected}"
            )
        if rel in (Relationship.OWNED, Relationship.REPLICATED):
            missing = expected - kinds
            if missing:
                raise AssertionError(
                    f"peer {peer.sid} node {node} ({rel.value}): "
                    f"missing mandatory state {missing}"
                )
    return counts
