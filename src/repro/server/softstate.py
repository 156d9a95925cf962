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

from typing import Dict, Iterable, Tuple

from repro.net.message import QueryMessage, ResponseMessage


class SoftStateAbsorber:
    """Absorbs piggybacked soft state into a peer's tables.

    Owns the in-band load-sample table (``known_loads``); all other
    touched state (maps, cache, digest directory) stays owned by the
    composing peer.
    """

    __slots__ = ("peer", "known_loads")

    def __init__(self, peer) -> None:
        self.peer = peer
        # server id -> (last load sample, sample time)
        self.known_loads: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # per-message intake
    # ------------------------------------------------------------------

    def absorb_query(self, m: QueryMessage, now: float) -> None:
        """Intake of everything piggybacked on a forwarded query."""
        peer = self.peer
        sid = peer.sid
        sender = m.sender
        if sender != sid:
            self.known_loads[sender] = (m.sender_load, now)
            snap = m.sender_digest
            if snap is not None and peer.digest_dir is not None:
                peer.digest_dir.observe(sender, snap)
        for adv in m.adverts:
            self.absorb_advert(adv.node, (adv.server,))
        path = m.path
        if path:
            cfg = peer.cfg
            if cfg.caching_enabled and cfg.path_propagation:
                peer.cache.put_path(path, sid, peer.owned, peer.store.replicas)

    def absorb_response(self, r: ResponseMessage, now: float) -> None:
        """Intake of everything piggybacked on a query response."""
        peer = self.peer
        if r.resolver != peer.sid:
            self.known_loads[r.resolver] = (r.sender_load, now)
            if r.sender_digest is not None and peer.digest_dir is not None:
                peer.digest_dir.observe(r.resolver, r.sender_digest)
        if peer.cfg.caching_enabled:
            if not peer.hosts(r.dest):
                peer.cache.put(
                    r.dest, peer._filter_servers(r.dest, r.dest_map)
                )
            if peer.cfg.path_propagation:
                peer.cache.put_path(
                    r.path, peer.sid, peer.owned, peer.store.replicas
                )

    def absorb_advert(self, node: int, servers: Iterable[int]) -> None:
        """Fold advertised new replicas into kept maps, preferred."""
        peer = self.peer
        entry = peer.maps.get(node)
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
                peer.maps[node] = out
            return
        if peer.cfg.caching_enabled and node in peer.cache:
            peer.cache.put(node, list(servers))

    def __repr__(self) -> str:
        return f"SoftStateAbsorber(known_loads={len(self.known_loads)})"
