"""Soft-state intake: everything a peer learns from piggybacked data.

All in-band dissemination in the protocol arrives as piggyback on
query/response traffic (plus the rare back-propagated advert message):
load samples, digest snapshots, new-replica advertisements, and path
cache entries.  :class:`SoftStateAbsorber` is the single place that
state enters a peer, keeping the intake plane separate from the
forwarding decision (:class:`~repro.server.routing_core.RoutingCore`)
the way digest-maintenance planes are kept off the forwarding path in
Bloom-filter routing stacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.net.message import QueryMessage, ResponseMessage

if TYPE_CHECKING:
    from repro.server.peer import Peer


class SoftStateAbsorber:
    """Absorbs piggybacked soft state into a peer's tables.

    Owns no state: everything it writes (``known_loads``, maps, cache,
    digest directory) belongs to the composing peer.
    """

    __slots__ = ("peer",)

    def __init__(self, peer: Peer) -> None:
        self.peer = peer

    # ------------------------------------------------------------------
    # per-message intake
    # ------------------------------------------------------------------

    def absorb_query(self, m: QueryMessage, now: float) -> None:
        """Intake of everything piggybacked on a forwarded query."""
        peer = self.peer
        sid = peer.sid
        sender = m.sender
        if sender != sid:
            peer.known_loads[sender] = (m.sender_load, now)
            snap = m.sender_digest
            if snap is not None and peer.digest_dir is not None:
                peer.digest_dir.observe(sender, snap)
        for adv in m.adverts:
            self.absorb_advert(adv.node, (adv.server,))
        path = m.path
        if path:
            cfg = peer.cfg
            if cfg.caching_enabled and cfg.path_propagation:
                peer.cache.put_path(path, sid, peer.owner, peer.store.replicas)

    def absorb_response(self, r: ResponseMessage, now: float) -> None:
        """Intake of everything piggybacked on a query response."""
        peer = self.peer
        if r.resolver != peer.sid:
            peer.known_loads[r.resolver] = (r.sender_load, now)
            if r.sender_digest is not None and peer.digest_dir is not None:
                peer.digest_dir.observe(r.resolver, r.sender_digest)
        if peer.cfg.caching_enabled:
            if not peer.hosts(r.dest):
                peer.cache.put(
                    r.dest, peer._filter_servers(r.dest, r.dest_map)
                )
            if peer.cfg.path_propagation:
                peer.cache.put_path(
                    r.path, peer.sid, peer.owner, peer.store.replicas
                )

    def absorb_advert(self, node: int, servers: Iterable[int]) -> None:
        """Fold advertised new replicas into kept maps, preferred."""
        peer = self.peer
        entry = peer.map_of(node)
        if entry is not None:
            # map values are read-only: edit a copy, store it if it moved
            out = list(entry)
            moved = False
            for s in servers:
                if s in out:
                    continue
                if len(out) >= peer.cfg.rmap:
                    idx = [i for i, e in enumerate(out) if e != peer.sid]
                    if not idx:
                        continue
                    out.pop(peer.rng.choice(idx))
                out.insert(0, s)
                moved = True
            if moved:
                peer.set_map(node, out)
            return
        if peer.cfg.caching_enabled and node in peer.cache:
            peer.cache.put(node, list(servers))

    def __repr__(self) -> str:
        return f"SoftStateAbsorber(peer={self.peer.sid})"
