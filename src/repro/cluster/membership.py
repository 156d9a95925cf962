"""Ownership transfer and server membership changes.

Section 2.3: "Inconsistent routing state (nodes leaving or joining the
system) will manifest in less precise forwarding steps" -- the protocol
tolerates ownership moving between servers because maps are soft state:
queries that land on the old owner take a stale hop and recover.

This module implements the mechanics that create such inconsistency:

* :func:`transfer_ownership` -- move one node (data + meta + context)
  to a new owner; old maps around the network go stale and are
  corrected lazily (digests, map filtering, stale-hop recovery);
* :func:`retire_server` -- a server leaves gracefully: every owned
  node is transferred to designated (or round-robin) heirs, replicas
  are dropped;
* :func:`add_server` -- a new server joins and receives ownership of a
  set of nodes.

None of these notify other servers: dissemination is strictly in-band,
matching the protocol's soft-state philosophy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.cluster.system import System
from repro.server.peer import Peer


def transfer_ownership(system: System, node: int, new_owner: int) -> None:
    """Move ``node``'s ownership (data, meta, context) to ``new_owner``.

    The old owner forgets the node entirely; the new owner adopts it
    with full routing context.  Nobody else is told -- their maps now
    contain a stale entry that the soft-state machinery will launder.

    Raises:
        ValueError: if ``new_owner`` is invalid or already owns the node.
    """
    if not 0 <= new_owner < len(system.peers):
        raise ValueError(f"no server {new_owner}")
    old_owner = system.owner[node]
    if old_owner == new_owner:
        raise ValueError(f"server {new_owner} already owns node {node}")
    src = system.peers[old_owner]
    dst = system.peers[new_owner]

    # capture state to move before tearing down the source
    meta = src.metadata.meta(node)
    data = src.metadata.get_data(node)
    context = {
        nbr: list(src.maps.get(nbr, ())) for nbr in system.ns.neighbors(node)
    }
    node_map = [s for s in src.maps.get(node, ()) if s != src.sid]

    _drop_owned(src, node)

    # install at the destination (replica first if it held one)
    if node in dst.store.replicas:
        dst.store.evict(node, system.engine.now)
    dst.adopt_nodes((node,))
    dst.metadata._meta[node] = meta  # move, not copy: owner-only state
    if data is not None:
        dst.metadata.set_data(node, data)
    dst.pin(node, node_map)  # extends the map adoption just led with dst
    for nbr, nbr_map in context.items():
        dst.pin(nbr, nbr_map)
    system.owner[node] = new_owner

    # The transfer handshake also refreshes the node's *context
    # holders*: every server keeping a topology-imposed (pinned) map
    # for this node -- the hosts of its namespace neighbors -- learns
    # the new owner, exactly as a real ownership hand-off would notify
    # them.  Ad-hoc state (caches) stays stale: that is soft state.
    for p in system.peers:
        if p.sid == new_owner:
            continue
        entry = p.maps.get(node)
        if entry is None or not p.pinned(node):
            continue
        out = list(entry)  # map values are read-only
        if old_owner in out:
            out.remove(old_owner)
        if new_owner not in out:
            if len(out) >= p.cfg.rmap:
                out.pop()
            out.insert(0, new_owner)
        p.maps[node] = out


def _drop_owned(peer: Peer, node: int) -> None:
    """Remove an owned node and its pins from ``peer``."""
    peer.owned.discard(node)
    peer.store.untrack_owned(node)
    peer.ranking.forget(node)
    peer.metadata._meta.pop(node, None)
    peer.metadata._data.pop(node, None)
    peer.store.adverts_recent.pop(node, None)
    for nbr in peer.ns.neighbors(node):
        peer.unpin(nbr)
    entry = peer.maps.get(node)
    if entry is not None:
        kept = [s for s in entry if s != peer.sid]
        if kept or peer.pinned(node):
            peer.maps[node] = kept
        else:
            del peer.maps[node]
    if peer.digest is not None:
        peer.digest.rebuild(peer.store.hosted_list)


def retire_server(
    system: System,
    sid: int,
    heirs: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Gracefully remove a server: hand every owned node to an heir.

    Args:
        heirs: candidate new owners (default: every other server),
            assigned round-robin.

    Returns:
        ``{node: new_owner}`` for every transferred node.

    The retired server keeps running (it can still route/forward on
    stale inbound traffic) but owns nothing and drops its replicas; to
    take it off the network entirely, combine with
    :class:`repro.cluster.failures.FailureInjector`.
    """
    peer = system.peers[sid]
    if heirs is None:
        heirs = [p.sid for p in system.peers if p.sid != sid]
    heirs = [h for h in heirs if h != sid]
    if not heirs:
        raise ValueError("no heirs available")
    moved: Dict[int, int] = {}
    now = system.engine.now
    for node in list(peer.store.replicas):
        peer.store.evict(node, now)
    for i, node in enumerate(sorted(peer.owned)):
        heir = heirs[i % len(heirs)]
        transfer_ownership(system, node, heir)
        moved[node] = heir
    return moved


def add_server(system: System, take_nodes: Iterable[int]) -> int:
    """Join a new server and transfer it ownership of ``take_nodes``.

    Returns the new server id.  The newcomer learns bootstrap load
    info for a few random peers, mirroring initial wiring.
    """
    from repro.filters.digest import Digest, DigestDirectory

    sid = len(system.peers)
    peer = Peer(sid, system, owned=())
    # fleet geometry, so snapshots stay cross-evaluable both ways
    peer.digest = Digest.like(system.peers[0].digest, owner_server=sid)
    peer.digest_dir = DigestDirectory(
        peer.digest, max_peers=system.cfg.digest_dir_max
    )
    system.peers.append(peer)
    system.transport.register(sid, peer.deliver)

    rng = system.rng_streams.stream(f"join-{sid}")
    k = min(system.cfg.bootstrap_known_peers, sid)
    if k > 0:
        for s in rng.sample(range(sid), k):
            peer.known_loads[s] = (0.0, system.engine.now)

    for node in take_nodes:
        transfer_ownership(system, node, sid)
    return sid
