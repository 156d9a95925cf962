"""Static replication of the namespace top (the paper's alternative).

Section 2.3: "hierarchical bottlenecks can be addressed by *static*
replication mechanisms [15]" -- replicating the top levels of the tree
onto many servers at deployment time.  The paper argues statics cannot
follow demand-induced hot-spots; we implement it as the natural
baseline for the adaptive protocol's ablation study.

:func:`replicate_top_levels` installs, for every node at depth <=
``depth_limit``, replicas on ``copies`` distinct servers, wiring full
routing context and owner-side advertisement exactly as an adaptive
transfer would -- so the comparison isolates the *policy* (static
placement vs load-adaptive placement), not the mechanism.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from repro.namespace.tree import Namespace
    from repro.server.peer import Peer

from repro.cluster.system import System


def replicate_top_levels(
    system: System,
    depth_limit: int = 2,
    copies: int = 4,
    seed: int = 0,
    record_stats: bool = False,
) -> Dict[int, List[int]]:
    """Statically replicate every node at depth <= ``depth_limit``.

    Args:
        copies: replicas per node (capped by server count - 1).
        record_stats: count these installs in the system's
            replica-creation statistics (off by default so experiment
            series show only *adaptive* creations).

    Returns:
        ``{node: [servers it was replicated on]}``.
    """
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    rng = random.Random(seed)
    ns = system.ns
    placed: Dict[int, List[int]] = {}
    n_servers = len(system.peers)
    now = system.engine.now
    for node in range(len(ns)):
        if ns.depth[node] > depth_limit:
            continue
        owner_sid = system.owner[node]
        owner = system.peers[owner_sid]
        k = min(copies, n_servers - 1)
        candidates = [s for s in range(n_servers) if s != owner_sid]
        targets = rng.sample(candidates, k)
        installed: List[int] = []
        for sid in targets:
            target = system.peers[sid]
            if target.hosts(node):
                continue
            payload = owner.build_replica_payload(node)
            if payload is None:
                continue
            target.install_replica(payload, now)
            installed.append(sid)
            # owner-side bookkeeping identical to an adaptive transfer
            if record_stats:
                owner.note_replica_created(node, sid, now)
            else:
                _note_without_stats(owner, node, sid)
        placed[node] = installed
    return placed


def _note_without_stats(owner: "Peer", node: int, target: int) -> None:
    """Owner map/advertisement update minus the stats recording."""
    from repro.server.replica_store import advert_push

    advert_push(owner.adverts_recent, node, target, owner.cfg.rmap)
    entry = owner.maps.get(node)
    if entry is not None and target not in entry:
        out = list(entry)  # map values are read-only: replace, not edit
        if len(out) >= owner.cfg.rmap:
            idx = [i for i, s in enumerate(out) if s != owner.sid]
            if idx:
                out.pop(idx[0])
            else:
                return
        out.insert(0, target)
        owner.maps[node] = out


def static_replica_count(ns: "Namespace", depth_limit: int, copies: int) -> int:
    """Replicas a static deployment pays for, regardless of demand."""
    return copies * sum(
        1 for v in range(len(ns)) if ns.depth[v] <= depth_limit
    )
