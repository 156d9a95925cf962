"""System assembly: nodes to servers, neighbor wiring, digests, bootstrap.

The paper's methodology maps both namespaces uniformly at random onto
the participating servers; every server then keeps a map for each
neighbor of each node it owns (its routing contexts, read off the
owner table until one differs), seeds its own digest with its owned
nodes, and learns the loads of a few random peers
so replication has somewhere to start before in-band dissemination
takes over.

Sharded construction (:func:`build_shard_system`) wires the same
deployment one shard at a time: only the shard's own servers are
materialised, but every *global* random draw of the serial build (the
uniform node assignment, the heterogeneity sample, the per-server
bootstrap samples) is replayed identically in each shard and applied
only where it lands locally -- so the union of the shards is, state
for state, the serial system.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cluster.config import SystemConfig
from repro.cluster.system import ShardSystem, System
from repro.filters.digest import Digest, DigestDirectory
from repro.namespace.generators import assign_nodes_to_servers
from repro.namespace.tree import Namespace
from repro.net.transport import check_shardable
from repro.server.peer import Peer
from repro.sim.engine import Engine
from repro.sim.stats import StatsSink

#: Bloom false-positive rate at nominal per-server digest capacity
DIGEST_FP_RATE = 0.02


def _resolve_owner(
    ns: Namespace, cfg: SystemConfig, owner: Optional[Sequence[int]]
) -> Sequence[int]:
    """Validate or default the node-to-server assignment.

    The default is :func:`assign_nodes_to_servers`' ``array('i')``: no
    boxed int per node, so forked shard workers read it without writing
    refcounts into the pages they share with the coordinator.  An
    explicit ``owner`` is validated *in place* and returned as-is:
    copying it to a list would re-materialise one boxed int per node
    per worker.
    """
    if cfg.n_servers > len(ns):
        raise ValueError(
            f"n_servers ({cfg.n_servers}) exceeds node count ({len(ns)}); "
            "every server must own at least one node"
        )
    if owner is None:
        return assign_nodes_to_servers(ns, cfg.n_servers, seed=cfg.seed)
    if len(owner) != len(ns):
        raise ValueError("owner assignment length must equal node count")
    if min(owner) < 0 or max(owner) >= cfg.n_servers:
        raise ValueError("owner ids out of range")
    return owner


def _populate_system(
    system: System, owner_list: Sequence[int], sids: Iterable[int]
) -> None:
    """Construct and wire the peers for ``sids`` into ``system``.

    The serial build passes every sid; a shard build passes its local
    subset.  Global RNG draws (heterogeneity, bootstrap) are replayed
    in full either way so any subset of servers sees exactly the draws
    the serial build would have dealt it.
    """
    ns, cfg = system.ns, system.cfg
    sids = list(sids)

    # shared Bloom geometry for all digests: capacity sized to the
    # worst-case hosted set (owned + replica allowance), so snapshots
    # are cross-evaluable and the FP rate holds under replication.
    per_server = max(1, math.ceil(len(ns) / cfg.n_servers))
    digest_capacity = max(16, math.ceil(per_server * (1.0 + max(cfg.rfact, 1.0))))

    owned_by: Dict[int, List[int]] = {sid: [] for sid in sids}
    for node, srv in enumerate(owner_list):
        nodes = owned_by.get(srv)
        if nodes is not None:
            nodes.append(node)
    for sid, nodes in owned_by.items():
        if not nodes:
            # it would route from no hosted ancestor (closest() is -1)
            raise ValueError(f"server {sid} owns no node")

    template = None
    for sid in sids:
        peer = Peer(sid, system)
        # one geometry and one hash-position cache for the fleet: each
        # node id is hashed once per process, not once per filter
        if template is None:
            template = peer.digest = Digest(
                digest_capacity, fp_rate=DIGEST_FP_RATE, owner_server=sid
            )
        else:
            peer.digest = Digest.like(template, owner_server=sid)
        peer.digest_dir = DigestDirectory(
            peer.digest, max_peers=cfg.digest_dir_max
        )
        # the serial ``peers`` *is* ``local_peers`` and grows with it; a
        # shard or live system hosts a subset, and its ``peers`` is a
        # separate pre-sized, sid-indexed list (None for remote servers)
        system.local_peers.append(peer)
        if system.peers is not system.local_peers:
            system.peers[sid] = peer
        system.transport.register(sid, peer.deliver)

    # ownership; the routing contexts' maps are the owner table's
    # defaults (Peer.map_of), so nothing more is wired for them
    for sid in sids:
        system.peers[sid].adopt_nodes(owned_by[sid])

    # heterogeneity: mark a fraction of servers slow (locally
    # normalized load metric absorbs the difference, section 3.1);
    # one global draw, applied wherever it lands locally
    if cfg.slow_server_fraction > 0.0 and cfg.slow_factor > 1.0:
        het_rng = random.Random(cfg.seed ^ 0x51095109)
        n_slow = int(round(cfg.slow_server_fraction * cfg.n_servers))
        for sid in het_rng.sample(range(cfg.n_servers), n_slow):
            peer = system.peers[sid]
            if peer is not None:
                peer.service_mean = cfg.service_mean * cfg.slow_factor

    # bootstrap load knowledge: a few random peers, believed idle.
    # Draws are replayed for *every* server in sid order -- skipping
    # remote sids would shift the stream and desynchronise shards.
    if cfg.bootstrap_known_peers > 0 and cfg.n_servers > 1:
        boot_rng = random.Random(cfg.seed ^ 0x5EED0B00)
        k = min(cfg.bootstrap_known_peers, cfg.n_servers - 1)
        # "every server but sid" as range(n - 1) with the indices from
        # sid on shifted up: sample() draws positions, so the picks are
        # those of the materialised list, without building n of them
        everyone_else = range(cfg.n_servers - 1)
        for sid in range(cfg.n_servers):
            picks = boot_rng.sample(everyone_else, k)
            peer = system.peers[sid]
            if peer is not None:
                for i in picks:
                    peer.known_loads[i if i < sid else i + 1] = (0.0, 0.0)


def build_system(
    ns: Namespace,
    cfg: SystemConfig,
    owner: Optional[Sequence[int]] = None,
    engine: Optional[Engine] = None,
    stats: Optional[StatsSink] = None,
) -> System:
    """Wire a complete simulated system.

    Args:
        ns: the namespace tree.
        cfg: all protocol/simulation knobs.
        owner: optional explicit node-to-server assignment; defaults to
            the uniform random balanced partition of the paper.
        engine: optional externally owned event engine.
        stats: optional stats sink; defaults to a full
            :class:`~repro.sim.stats.SystemStats` collector.

    Raises:
        ValueError: when there are more servers than nodes, or an
            explicit ``owner`` leaves a server without one (every
            server must own at least one node for routing progress).
    """
    owner_list = _resolve_owner(ns, cfg, owner)
    # explicit None check: an empty Engine is falsy (len() == 0), so
    # ``engine or Engine()`` would drop a caller's fresh engine
    if engine is None:
        engine = Engine()
    system = System(ns, cfg, engine, owner_list, stats=stats)
    _populate_system(system, owner_list, range(cfg.n_servers))
    return system


def build_shard_system(
    ns: Namespace,
    cfg: SystemConfig,
    shard_id: int,
    n_shards: int,
    owner: Optional[Sequence[int]] = None,
    stats: Optional[StatsSink] = None,
) -> ShardSystem:
    """Wire one shard's slice of a sharded deployment.

    Servers are partitioned across shards in contiguous balanced
    blocks (:func:`repro.net.transport.shard_of_sid`) over the same
    uniform node-to-server assignment the serial build uses; only this
    shard's servers are constructed.

    Raises:
        ShardError: when the config cannot run sharded
            (:func:`repro.net.transport.check_shardable`).
        ValueError: when an explicit ``owner`` leaves one of this
            shard's servers without a node (as :func:`build_system`).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_shards > cfg.n_servers:
        raise ValueError(
            f"n_shards ({n_shards}) exceeds n_servers ({cfg.n_servers})"
        )
    check_shardable(cfg)
    owner_list = _resolve_owner(ns, cfg, owner)
    system = ShardSystem(
        ns, cfg, Engine(), owner_list, shard_id, n_shards, stats=stats
    )
    _populate_system(system, owner_list, system.local_sids)
    return system
