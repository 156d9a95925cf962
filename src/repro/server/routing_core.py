"""The forwarding plane of one peer: decision, resolve, respond.

Per processed query the core absorbs piggybacked soft state (delegated
to the peer's :class:`~repro.server.softstate.SoftStateAbsorber`),
attributes routing work to the node the query travelled on behalf of,
makes exactly one routing decision (:mod:`repro.core.routing`), and
either resolves locally or forwards with this peer's own soft state
piggybacked on.  Responses and second-step data requests are handled
here too: they are forwarding-plane traffic that bypasses the request
queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core import routing
from repro.core.maps import merge_maps
from repro.net.message import (
    Advertisement,
    AdvertMessage,
    DataReply,
    DataRequest,
    QueryMessage,
    ResponseMessage,
)

if TYPE_CHECKING:
    from repro.server.peer import Peer


class RoutingCore:
    """Decision + forward logic, stateless apart from the peer reference."""

    __slots__ = ("peer", "_record_drop", "_record_forward",
                 "_record_stale_hop", "_record_completion")

    def __init__(self, peer: Peer) -> None:
        self.peer = peer
        # per-query sink hooks, bound once (see Peer.__init__)
        stats = peer.stats
        self._record_drop = stats.record_drop
        self._record_forward = stats.record_forward
        self._record_stale_hop = stats.record_stale_hop
        self._record_completion = stats.record_completion

    # ------------------------------------------------------------------
    # query processing
    # ------------------------------------------------------------------

    def process(self, m: QueryMessage) -> None:
        """One full processing step for a dequeued query."""
        peer = self.peer
        cfg = peer.cfg
        now = peer.rt.now
        sid = peer.sid
        store = peer.store
        dest = m.dest

        # -- absorb piggybacked soft state --------------------------------
        peer.absorber.absorb_query(m, now)

        # -- attribution of routing work (node ranking, section 3.2) ------
        via = m.via
        # nothing below changes what this peer hosts: one test serves
        # the attribution here and the path entry at the end
        served = via >= 0 and (via in peer.owned or via in store.replicas)
        if served:
            peer.ranking.hit(via)
            store.touch(via, now)
        elif via >= 0:
            m.stale_hops += 1
            self._record_stale_hop(now)

        # -- merge the in-flight destination map into kept state ----------
        if m.dest_map:
            peer.merge_map(dest, m.dest_map)

        # -- route ---------------------------------------------------------
        decision = routing.decide(peer, dest)
        action = decision.action
        if action is routing.RouteAction.RESOLVED:
            self.resolve(m, now)
            return
        if action is routing.RouteAction.FAIL:
            self._record_drop(now, "routing")
            return
        m.hops += 1
        if m.hops > cfg.max_hops:
            self._record_drop(now, "ttl")
            return
        self._record_forward(now, decision.source)

        # -- advertisements (an empty table, the usual case, costs one
        # truth test) --------------------------------------------------------
        adv_out = m.adverts
        if adv_out:
            # what came in was absorbed above, not forwarded
            adv_out = m.adverts = []
        advertised: Sequence[int] = ()
        adverts_recent = store.adverts_recent
        if adverts_recent:
            if cfg.advertisement_enabled:
                # back-propagate fresh replica info for the node we served
                if via >= 0 and m.sender != sid:
                    recent = adverts_recent.get(via)
                    if recent:
                        peer.rt.send(
                            m.sender, AdvertMessage(via, list(recent))
                        )
                for node in (decision.via, dest):
                    recent = adverts_recent.get(node)
                    if recent:
                        adv_out.extend(Advertisement(node, s) for s in recent)
            advertised = adverts_recent.get(dest, ())

        # -- piggyback and forward -----------------------------------------
        if served:
            m.path.append((via, sid))
        m.via = decision.via
        m.sender = sid
        m.sender_load = peer.meter.load()
        if cfg.digests_enabled and peer.digest is not None:
            m.sender_digest = peer.digest.snapshot()
        m.dest_map = merge_maps(
            peer.maps.get(dest) or peer.cache.peek(dest) or (),
            m.dest_map, cfg.rmap, peer.rng, advertised,
        )
        peer.rt.send(decision.next_server, m)

    def resolve(self, m: QueryMessage, now: float) -> None:
        """The query reached a host of its destination: lookup complete."""
        peer = self.peer
        peer.ranking.hit(m.dest)
        peer.store.touch(m.dest, now)
        m.path.append((m.dest, peer.sid))
        entry = list(peer.maps.get(m.dest, ()))
        if peer.sid not in entry:
            entry.insert(0, peer.sid)
        resp = ResponseMessage(
            m, resolver=peer.sid, dest_map=entry,
            meta_version=peer.meta_version_of(m.dest),
        )
        resp.sender_load = peer.meter.load()
        if peer.cfg.digests_enabled and peer.digest is not None:
            resp.sender_digest = peer.digest.snapshot()
        if m.origin == peer.sid:
            self.on_response(resp)
        else:
            # responses return directly to the origin, bypassing queues
            peer.rt.send(m.origin, resp)

    # ------------------------------------------------------------------
    # response and data planes
    # ------------------------------------------------------------------

    def on_response(self, r: ResponseMessage) -> None:
        peer = self.peer
        now = peer.rt.now
        peer.absorber.absorb_response(r, now)
        latency = now - r.created_at
        self._record_completion(now, latency, r.hops, r.stale_hops)
        hook = peer.client_hooks.pop(("lookup", r.qid), None)
        if hook is not None:
            hook(r)

    def on_data_request(self, req: DataRequest) -> None:
        """Second-step retrieval (paper section 2.1): serve data/meta if
        we own the node, else redirect with our map for it."""
        peer = self.peer
        reply = DataReply(req.rid, req.node, peer.sid)
        if req.node in peer.owned:
            if req.want_meta:
                reply.meta = peer.metadata.read(req.node).snapshot()
            else:
                reply.data = peer.metadata.get_data(req.node)
                reply.meta = peer.metadata.read(req.node).snapshot()
        else:
            entry = peer.maps.get(req.node) or peer.cache.peek(req.node)
            reply.redirect_map = [
                s for s in (entry if entry is not None else ())
                if s != peer.sid
            ]
        peer.rt.send(req.origin, reply)

    def __repr__(self) -> str:
        return f"RoutingCore(peer={self.peer.sid})"
