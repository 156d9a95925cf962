"""Hierarchical routing with replicas, caches, and digest shortcuts.

The routing procedure is a greedy minimiser over namespace distance
(paper sections 2.2, 3.6.1): a server routing a query for node ``t``
always forwards toward the closest node to ``t`` that it knows about.
The candidates, in the order we evaluate them:

1. **Resolution** -- the server hosts ``t`` (owns or replicates it).
2. **Direct map** -- the server has a map for ``t`` itself (``t`` is a
   neighbor of a hosted node, or sits in the cache): distance 0.
3. **Structural** -- the neighbor-toward-``t`` of the closest hosted
   node ``h*``.  Because every hosted node carries its full context,
   this candidate always exists and has distance ``d(h*, t) - 1``,
   which is exactly the best achievable from hosted state alone; it is
   what guarantees incremental progress.
4. **Cache scan** -- any cached node may be closer (path propagation
   deliberately caches a mixture of near and far nodes).
5. **Digest shortcut** -- test ``t`` and its ancestors (deepest first)
   against known inverse-mapping digests; a hit strictly closer than
   the best candidate so far wins (section 3.6.1).

Hosted state is large and rarely changes, so the store keeps an
:class:`~repro.core.nsindex.AncestorIndex` and the structural candidate
costs O(depth(dest)).  The cache is small and written several times per
message, so it keeps no index: :func:`scan_cache` walks its entries in
LRU order, pruning each with one ancestor comparison (DESIGN.md
section 10).
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.server.peer import Peer


class RouteAction(enum.Enum):
    RESOLVED = "resolved"
    FORWARD = "forward"
    FAIL = "fail"


class RouteDecision:
    """Outcome of one routing step.

    Attributes:
        action: resolved locally, forward to ``next_server``, or fail.
        via: the candidate node the forwarding targets (the node on
            whose behalf the next server will process the query).
        next_server: chosen host of ``via``.
        source: which candidate class won ("resolved", "direct",
            "struct", "cache", "digest") -- used by accuracy metrics
            and the ablation benchmarks.
        distance: namespace distance from ``via`` to the destination.
    """

    __slots__ = ("action", "via", "next_server", "source", "distance")

    def __init__(
        self,
        action: RouteAction,
        via: int = -1,
        next_server: int = -1,
        source: str = "",
        distance: int = -1,
    ) -> None:
        self.action = action
        self.via = via
        self.next_server = next_server
        self.source = source
        self.distance = distance

    def __repr__(self) -> str:
        return (
            f"RouteDecision({self.action.value}, via={self.via}, "
            f"next_server={self.next_server}, source={self.source!r})"
        )


def scan_cache(peer: "Peer", dest: int, best_d: int) -> Tuple[int, int]:
    """Best cache candidate strictly closer than ``best_d``.

    Returns ``(node, distance)`` or ``(-1, best_d)`` when nothing beats
    the current best.  Entries are visited in LRU order and accepted
    only at a strictly smaller distance, so among equidistant entries
    the least recently used wins (the pinned tie-break).

    An entry ``v`` at distance ``depth(v) + depth(dest) - 2 * lca_depth``
    beats ``best_d`` only if ``lca_depth >= k`` with
    ``k = (depth(v) + depth(dest) - best_d) // 2 + 1``, i.e. only if the
    two ancestor chains agree at depth ``k``: one comparison rejects
    every other entry, and only survivors walk the common prefix on
    from ``k``.
    """
    ns = peer.ns
    arena = ns.anc_arena
    off = ns.anc_off
    depth = ns.depth
    o_dest = off[dest]
    d_dest = depth[dest]
    best = -1
    # k = (depth(v) + slack) >> 1; rises whenever best_d improves
    slack = d_dest - best_d + 2
    for v in peer.cache.nodes():
        d_v = depth[v]
        k = (d_v + slack) >> 1
        if k < 0:
            k = 0
        elif k > d_v or k > d_dest:
            continue
        o_v = off[v]
        if arena[o_v + k] != arena[o_dest + k]:
            continue
        n = d_v if d_v < d_dest else d_dest
        while k < n and arena[o_v + k + 1] == arena[o_dest + k + 1]:
            k += 1
        best = v
        best_d = d_v + d_dest - 2 * k
        slack = d_dest - best_d + 2
    return best, best_d


def digest_shortcut(peer: "Peer", dest: int, best_d: int) -> Tuple[int, int, int]:
    """Probe known digests for a node strictly closer than ``best_d``.

    Tests ``dest`` and its ancestors, deepest first, against the most
    recently observed digest snapshots (bounded by
    ``digest_probe_limit`` snapshots per step).  Deeper ancestors are
    strictly closer to ``dest``, so the first hit is the best hit.

    Returns ``(node, server, distance)`` or ``(-1, -1, best_d)``.
    """
    ddir = peer.digest_dir
    if ddir is None:
        return -1, -1, best_d
    ns = peer.ns
    d_dest = ns.depth[dest]
    # ancestors at depth da have distance d_dest - da; only depths
    # yielding a strict improvement are worth probing
    min_depth = d_dest - best_d + 1
    if min_depth > d_dest:
        return -1, -1, best_d
    # version-cached eligible snapshot list: rebuilt only when the
    # directory mutates, not once per routing decision
    snaps = ddir.eligible_snaps(peer.sid, peer.cfg.digest_probe_limit)
    if not snaps:
        return -1, -1, best_d
    arena = ns.anc_arena
    o_dest = ns.anc_off[dest]
    # a hit in the fleet's shared position cache costs one dict probe;
    # only a node never probed before pays the call that hashes it
    cached_pos = ddir.pos_cache.get
    for da in range(d_dest, max(min_depth, 0) - 1, -1):
        a = arena[o_dest + da]
        pos = cached_pos(a) or ddir.positions(a)
        for server, vector in snaps:
            for i, m in pos:
                if not vector[i] & m:
                    break
            else:
                return a, server, d_dest - da
    return -1, -1, best_d


#: ``decide``'s ``direct`` when the caller has not read the map
_UNREAD: Any = object()


def decide(
    peer: "Peer", dest: int, direct: Optional[Sequence[int]] = _UNREAD,
) -> RouteDecision:
    """One full routing step for a query destined to ``dest`` at ``peer``.

    ``direct`` is ``peer.map_of(dest)`` when the caller has read it
    (:meth:`RoutingCore.process <repro.server.routing_core.RoutingCore.process>`
    does, once a hop); otherwise it is read here.
    """
    store = peer.store
    sid = peer.sid
    if peer.owner[dest] == sid or dest in store.replicas:
        return RouteDecision(
            RouteAction.RESOLVED, via=dest, source="resolved", distance=0,
        )

    rng = peer.rng
    cache = peer.cache

    # direct map for the destination itself (neighbor of a hosted node)
    if direct is _UNREAD:
        direct = peer.map_of(dest)
    if direct:
        server = _select_filtered(peer, dest, direct, rng, sid)
        if server >= 0:
            return RouteDecision(
                RouteAction.FORWARD, via=dest, next_server=server,
                source="direct", distance=0,
            )

    # destination sitting in the cache: also distance 0
    centry = cache.peek(dest)
    if centry:
        server = _select_filtered(peer, dest, centry, rng, sid)
        if server >= 0:
            cache.touch(dest)
            return RouteDecision(
                RouteAction.FORWARD, via=dest, next_server=server,
                source="cache", distance=0,
            )
        cache.remove(dest)

    # structural candidate from the closest hosted node's context --
    # an O(depth) ancestor-chain walk over the store's index
    h_star, d_star = store.index.closest(dest)
    # its neighbor one step toward dest: the child on the path down if
    # h_star is an ancestor of dest, else h_star's parent
    via = peer.ns.step_toward(h_star, dest)
    best_d = d_star - 1
    source = "struct"

    # closest cached node, if strictly closer (pruned LRU-order scan)
    cnode, cd = scan_cache(peer, dest, best_d)
    if cnode >= 0:
        via, best_d, source = cnode, cd, "cache"

    # digest shortcut for anything closer still
    if peer.cfg.digests_enabled:
        dnode, dserver, dd = digest_shortcut(peer, dest, best_d)
        if dnode >= 0:
            return RouteDecision(
                RouteAction.FORWARD, via=dnode, next_server=dserver,
                source="digest", distance=dd,
            )

    # resolve the winning candidate's map to a next-hop server
    if source == "cache":
        server = _select_filtered(peer, via, cache.get(via) or (), rng, sid)
        if server >= 0:
            return RouteDecision(
                RouteAction.FORWARD, via=via, next_server=server,
                source="cache", distance=best_d,
            )
        # dead cache entry: drop it and fall back to the structural hop
        cache.remove(via)
        via = peer.ns.step_toward(h_star, dest)
        best_d = d_star - 1
        source = "struct"

    # via neighbours the hosted h_star, so it has a map here: stored,
    # or the default (with nothing hosted, h_star is -1: ask the peer)
    entry = peer.maps.get(via)
    if entry is None:
        if h_star < 0:
            entry = peer.map_of(via) or ()
        else:
            entry = peer.solo[peer.owner[via]] if peer.cfg.rmap > 0 else ()
    server = _select_filtered(peer, via, entry, rng, sid)
    if server >= 0:
        return RouteDecision(
            RouteAction.FORWARD, via=via, next_server=server,
            source=source, distance=best_d,
        )
    return RouteDecision(RouteAction.FAIL, via=via, source=source, distance=best_d)


def _select(entry: Sequence[int], rng: random.Random, exclude: int) -> int:
    """Random host from a map, excluding ``exclude``; -1 when none."""
    n = len(entry)
    if n == 1:
        s = entry[0]
        return s if s != exclude else -1
    if n == 0:
        return -1
    eligible = [s for s in entry if s != exclude]
    if not eligible:
        return -1
    return eligible[rng.randrange(len(eligible))]


def _select_filtered(
    peer: "Peer", node: int, entry: Sequence[int], rng: random.Random,
    exclude: int,
) -> int:
    """Digest-aware replica selection (paper section 3.7, map filtering).

    Entries whose last known digest *denies* hosting ``node`` are
    skipped -- best-effort: unknown digests pass, and stale digests may
    wrongly veto a fresh replica (the paper accepts both).  Falls back
    to unfiltered selection when filtering empties the map, so a wall
    of stale digests cannot black-hole a reachable node.
    """
    if not entry:
        return -1
    ddir = peer.digest_dir
    if ddir is not None and peer.cfg.digests_enabled:
        eligible = ddir.undenied(entry, node, drop=exclude)
        if eligible:
            # drawn even for a single eligible server: the pinned stream
            return eligible[rng.randrange(len(eligible))]
    return _select(entry, rng, exclude)
