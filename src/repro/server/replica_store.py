"""Replica lifecycle for one peer: install, evict, snapshot, advertise.

Owns the replica table, the hosted-node list (owned first, then
replicas -- the candidate order of the routing tie-break), the
ancestor index mirroring that list for O(depth) closest-hosted
queries, and the per-node record of recently created replicas used
for advertisement piggybacking.  Shared peer state (maps, pins, cache,
digest, ranking) is reached through the composing
:class:`~repro.server.peer.Peer`, which remains the single owner of
that state.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.maps import merge_maps
from repro.core.nsindex import AncestorIndex
from repro.namespace.meta import NodeMeta
from repro.net.message import ReplicaPayload


def advert_push(
    adverts: Dict[int, array], node: int, target: int, rmap: int
) -> None:
    """MRU-push ``target`` onto ``node``'s bounded advert list.

    Replaces the old per-node ``deque(maxlen=rmap)`` with an
    ``array('i')`` holding the same sequence: most recent first,
    duplicates moved to the front, trimmed to ``rmap`` from the back.
    """
    lst = adverts.get(node)
    if lst is None:
        lst = array("i")
        adverts[node] = lst
    elif target in lst:
        lst.remove(target)
    lst.insert(0, target)
    del lst[rmap:]


class Replica:
    """Soft state kept for one replicated node.

    Replicas keep the newest meta-data version they have encountered
    (and optionally a meta snapshot); only the owner mutates meta-data.
    """

    __slots__ = ("meta_version", "installed_at", "last_used", "meta")

    def __init__(
        self,
        meta_version: int,
        installed_at: float,
        meta: NodeMeta = None,
    ) -> None:
        self.meta_version = meta_version
        self.installed_at = installed_at
        self.last_used = installed_at
        self.meta = meta


class ReplicaStore:
    """Replica lifecycle and source-side replication bookkeeping."""

    __slots__ = ("peer", "replicas", "hosted_list", "adverts_recent", "index")

    def __init__(self, peer) -> None:
        self.peer = peer
        self.replicas: Dict[int, Replica] = {}
        self.hosted_list: List[int] = list(peer.owned)
        self.adverts_recent: Dict[int, array] = {}
        # ancestor index over the hosted list, kept in lock-step with it
        # (same membership, seq order == list order) so routing finds
        # the closest hosted node in O(depth) instead of a full scan
        self.index = AncestorIndex(peer.ns, self.hosted_list)

    # ------------------------------------------------------------------
    # hosting state
    # ------------------------------------------------------------------

    def iter_hosted(self) -> Iterator[int]:
        """All hosted node ids (owned first, then replicas)."""
        return iter(self.hosted_list)

    def track_owned_many(self, nodes: Sequence[int]) -> None:
        """Record a batch of adopted owned nodes, in order."""
        self.hosted_list.extend(nodes)
        self.index.extend(nodes)

    def untrack_owned(self, node: int) -> None:
        """Drop an owned node from the hosted list (ownership transfer).

        The counterpart of :meth:`track_owned_many`; replica hosting ends via
        :meth:`evict`.  All hosted-list membership changes must go
        through the store so the ancestor index stays in sync.
        """
        self.hosted_list.remove(node)
        self.index.remove(node)

    def touch(self, node: int, now: float) -> None:
        """Refresh a replica's last-used time (if one exists)."""
        rep = self.replicas.get(node)
        if rep is not None:
            rep.last_used = now

    # ------------------------------------------------------------------
    # install / evict
    # ------------------------------------------------------------------

    def install(self, payload: ReplicaPayload, now: float) -> None:
        """Install a replica with full routing context (paper section 2.3)."""
        peer = self.peer
        node = payload.node
        self.replicas[node] = Replica(payload.meta_version, now,
                                      meta=payload.meta)
        self.hosted_list.append(node)
        self.index.add(node)
        peer.ranking.track(node)
        entry = peer.maps.get(node)
        merged = merge_maps(
            entry if entry is not None else [],
            payload.node_map, peer.cfg.rmap, peer.rng,
            advertised=(peer.sid,),
        )
        peer.maps[node] = merged
        for nbr, nbr_map in payload.context.items():
            peer.pin(nbr, nbr_map)
        # drop any stale cache entry now superseded by hosted state
        peer.cache.remove(node)
        if peer.digest is not None:
            peer.digest.add(node)

    def evict(self, node: int, now: float) -> None:
        """Locally delete a replica; other servers learn lazily."""
        peer = self.peer
        rep = self.replicas.pop(node, None)
        if rep is None:
            return
        self.hosted_list.remove(node)
        self.index.remove(node)
        peer.ranking.forget(node)
        for nbr in peer.ns.neighbors(node):
            peer.unpin(nbr)
        entry = peer.maps.pop(node, None)
        if peer.pinned(node):
            # the node is also a pinned neighbor of another hosted node
            # (re-inserted: it moves to the end of the map order)
            if entry is not None:
                peer.maps[node] = [s for s in entry if s != peer.sid]
        elif entry and peer.cfg.caching_enabled:
            peer.cache.put(node, [s for s in entry if s != peer.sid])
        if peer.digest is not None:
            peer.digest.rebuild(self.iter_hosted())
        peer.stats.record_replica_evicted(now, peer.ns.depth[node])

    def evict_idle(self, now: float) -> int:
        """Timed eviction of long-unused replicas (section 3.5)."""
        timeout = self.peer.cfg.replica_idle_timeout
        if timeout <= 0:
            return 0
        victims = [
            v for v, rep in self.replicas.items()
            if now - rep.last_used > timeout
        ]
        for v in victims:
            self.evict(v, now)
        return len(victims)

    # ------------------------------------------------------------------
    # source side: payload snapshots and creation bookkeeping
    # ------------------------------------------------------------------

    def build_payload(self, node: int) -> Optional[ReplicaPayload]:
        """Snapshot everything a target needs to host ``node``."""
        peer = self.peer
        if not peer.hosts(node):
            return None
        node_map = list(peer.maps.get(node, ()))
        if peer.sid not in node_map:
            node_map.insert(0, peer.sid)
        context: Dict[int, List[int]] = {}
        for nbr in peer.ns.neighbors(node):
            context[nbr] = list(peer.maps.get(nbr, ()))
        if node in peer.owned:
            meta = peer.metadata.meta(node)
            version, snapshot = meta.version, meta.snapshot()
        else:
            rep = self.replicas[node]
            version = rep.meta_version
            snapshot = rep.meta.snapshot() if rep.meta is not None else None
        return ReplicaPayload(node, version, node_map, context, meta=snapshot)

    def note_created(self, node: int, target: int, now: float) -> None:
        """Source-side bookkeeping after a target confirmed installation."""
        peer = self.peer
        advert_push(self.adverts_recent, node, target, peer.cfg.rmap)
        entry = peer.maps.get(node)
        if entry is not None:
            out = list(entry)  # map values are read-only
            if target in out:
                out.remove(target)
            if len(out) >= peer.cfg.rmap:
                # random eviction, but never of our own entry
                candidates = [i for i, s in enumerate(out) if s != peer.sid]
                if candidates:
                    out.pop(peer.rng.choice(candidates))
            out.insert(0, target)
            peer.maps[node] = out
        peer.stats.record_replica_created(now, peer.ns.depth[node])

    def __repr__(self) -> str:
        return (
            f"ReplicaStore(replicas={len(self.replicas)}, "
            f"hosted={len(self.hosted_list)}, "
            f"advertised_nodes={len(self.adverts_recent)})"
        )
