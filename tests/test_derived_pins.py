"""``Peer.pinned`` equals the pin refcount it replaced.

A peer used to count, per node, how many of its hosted nodes pinned
that node's map (a ``pin_refs`` dict beside ``maps``), and released the
map when the count fell to zero; every map was a list edited in place.
The pin is now derived from the hosted set and map values are
read-only.  The counted, in-place bodies are kept here verbatim -- only
the count moved out of the peer -- as :class:`CountedPins`, the
reference: a second system runs them on the same random sequence of
replica installs and evictions, ownership transfers, retirements,
replica-creation notes and adverts, and after every step the two
systems must agree, peer for peer, on every node's pin, the maps
(insertion order included), the caches and the RNG state.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.cluster.membership import retire_server, transfer_ownership
from repro.core.maps import merge_maps
from repro.namespace.generators import random_tree
from repro.server.replica_store import Replica, advert_push
from tests.test_builder import SHAPES, with_cross_links


class CountedPins:
    """The refcounted pin bodies, run against ``system``'s peers."""

    def __init__(self, system):
        self.system = system
        self.refs = {}
        for peer in system.peers:
            peer.maps = {node: list(m) for node, m in peer.maps.items()}
            refs = self.refs[peer.sid] = {}
            for nbr in system.ns.contexts(sorted(peer.owned)):
                refs[nbr] = refs.get(nbr, 0) + 1

    # -- Peer --------------------------------------------------------------

    def pin(self, peer, node, servers):
        refs = self.refs[peer.sid]
        refs[node] = refs.get(node, 0) + 1
        cur = peer.maps.get(node)
        if cur is None:
            entry = []
            for s in servers:
                if s not in entry and len(entry) < peer.cfg.rmap:
                    entry.append(s)
            peer.maps[node] = entry[:]
        else:
            for s in servers:
                if s not in cur and len(cur) < peer.cfg.rmap:
                    cur.append(s)

    def unpin(self, peer, node):
        refs = self.refs[peer.sid]
        n = refs.get(node, 0) - 1
        if n > 0:
            refs[node] = n
            return
        refs.pop(node, None)
        if peer.hosts(node):
            return
        entry = peer.maps.pop(node, None)
        if entry and peer.cfg.caching_enabled:
            peer.cache.put(node, entry)

    def adopt(self, peer, node):
        peer.store.track_owned_many((node,))
        peer.owned.add(node)
        peer.ranking.track(node)
        entry = peer.maps.get(node)
        if entry is None:
            peer.maps[node] = [peer.sid]
        elif peer.sid not in entry:
            entry.insert(0, peer.sid)
        peer.digest.add_many((node,))

    # -- ReplicaStore ------------------------------------------------------

    def install(self, peer, payload, now):
        store, node = peer.store, payload.node
        store.replicas[node] = Replica(payload.meta_version, now,
                                       meta=payload.meta)
        store.hosted_list.append(node)
        store.index.add(node)
        peer.ranking.track(node)
        entry = peer.maps.get(node)
        peer.maps[node] = merge_maps(
            entry if entry is not None else [],
            payload.node_map, peer.cfg.rmap, peer.rng,
            advertised=(peer.sid,),
        )
        refs = self.refs[peer.sid]
        refs[node] = refs.get(node, 0) + 1
        for nbr, nbr_map in payload.context.items():
            self.pin(peer, nbr, nbr_map)
        peer.cache.remove(node)
        peer.digest.add(node)

    def evict(self, peer, node, now):
        store = peer.store
        if store.replicas.pop(node, None) is None:
            return
        store.hosted_list.remove(node)
        store.index.remove(node)
        peer.ranking.forget(node)
        for nbr in peer.ns.neighbors(node):
            self.unpin(peer, nbr)
        refs = self.refs[peer.sid]
        n = refs.pop(node, 0) - 1
        entry = peer.maps.pop(node, None)
        if n > 0:
            refs[node] = n
            if entry is not None:
                peer.maps[node] = [s for s in entry if s != peer.sid]
        elif entry and peer.cfg.caching_enabled:
            peer.cache.put(node, [s for s in entry if s != peer.sid])
        peer.digest.rebuild(store.iter_hosted())
        peer.stats.record_replica_evicted(now, peer.ns.depth[node])

    def note_created(self, peer, node, target, now):
        advert_push(peer.store.adverts_recent, node, target, peer.cfg.rmap)
        entry = peer.maps.get(node)
        if entry is not None:
            if target in entry:
                entry.remove(target)
            if len(entry) >= peer.cfg.rmap:
                candidates = [i for i, s in enumerate(entry) if s != peer.sid]
                if candidates:
                    entry.pop(peer.rng.choice(candidates))
            entry.insert(0, target)
        peer.stats.record_replica_created(now, peer.ns.depth[node])

    # -- SoftStateAbsorber -------------------------------------------------

    def absorb_advert(self, peer, node, servers):
        entry = peer.maps.get(node)
        if entry is not None:
            for s in servers:
                if s in entry:
                    continue
                if len(entry) >= peer.cfg.rmap:
                    idx = [i for i, e in enumerate(entry) if e != peer.sid]
                    if not idx:
                        continue
                    entry.pop(peer.rng.choice(idx))
                entry.insert(0, s)
            return
        if peer.cfg.caching_enabled and node in peer.cache:
            peer.cache.put(node, list(servers))

    # -- membership --------------------------------------------------------

    def drop_owned(self, peer, node):
        peer.owned.discard(node)
        peer.store.untrack_owned(node)
        peer.ranking.forget(node)
        peer.metadata._meta.pop(node, None)
        peer.metadata._data.pop(node, None)
        peer.adverts_recent.pop(node, None)
        for nbr in peer.ns.neighbors(node):
            self.unpin(peer, nbr)
        refs = self.refs[peer.sid].get(node, 0)
        entry = peer.maps.get(node)
        if entry is not None:
            entry[:] = [s for s in entry if s != peer.sid]
            if refs == 0 and not entry:
                peer.maps.pop(node, None)
        peer.digest.rebuild(peer.iter_hosted())

    def transfer(self, node, new_owner):
        system = self.system
        old_owner = system.owner[node]
        src, dst = system.peers[old_owner], system.peers[new_owner]
        meta = src.metadata.meta(node)
        data = src.metadata.get_data(node)
        context = {
            nbr: list(src.maps.get(nbr, ())) for nbr in system.ns.neighbors(node)
        }
        node_map = [s for s in src.maps.get(node, ()) if s != src.sid]
        self.drop_owned(src, node)
        if node in dst.replicas:
            self.evict(dst, node, system.engine.now)
        self.adopt(dst, node)
        dst.metadata._meta[node] = meta
        if data is not None:
            dst.metadata.set_data(node, data)
        for s in node_map:
            entry = dst.maps[node]
            if s not in entry and len(entry) < dst.cfg.rmap:
                entry.append(s)
        for nbr, nbr_map in context.items():
            self.pin(dst, nbr, nbr_map)
        system.owner[node] = new_owner
        for p in system.peers:
            if p.sid == new_owner:
                continue
            if node not in self.refs[p.sid]:
                continue
            entry = p.maps.get(node)
            if entry is None:
                continue
            if old_owner in entry:
                entry.remove(old_owner)
            if new_owner not in entry:
                if len(entry) >= p.cfg.rmap:
                    entry.pop()
                entry.insert(0, new_owner)

    def retire(self, sid):
        system = self.system
        peer = system.peers[sid]
        heirs = [p.sid for p in system.peers if p.sid != sid]
        for node in list(peer.replicas):
            self.evict(peer, node, system.engine.now)
        for i, node in enumerate(sorted(peer.owned)):
            self.transfer(node, heirs[i % len(heirs)])


def step(op, x, y, new, ref):
    """Apply one operation to the production system and the reference;
    arguments are drawn from ``new``'s state (equal to the reference's)."""
    ns, n = new.ns, len(new.peers)
    old = ref.system
    if op == "install":
        sid = x % n
        free = [v for v in range(len(ns)) if not new.peers[sid].hosts(v)]
        if not free:
            return
        node = free[y % len(free)]
        src = new.owner[node]
        new.peers[sid].install_replica(
            new.peers[src].build_replica_payload(node), 0.0)
        ref.install(old.peers[sid], old.peers[src].build_replica_payload(node),
                    0.0)
    elif op == "evict":
        sid = x % n
        held = sorted(new.peers[sid].replicas)
        if held:
            node = held[y % len(held)]
            new.peers[sid].evict_replica(node, 0.0)
            ref.evict(old.peers[sid], node, 0.0)
    elif op == "transfer":
        node, dst = x % len(ns), y % n
        if new.owner[node] != dst:
            transfer_ownership(new, node, dst)
            ref.transfer(node, dst)
    elif op == "retire":
        retire_server(new, x % n)
        ref.retire(x % n)
    elif op == "note":
        node, target = x % len(ns), y % n
        src = new.owner[node]
        if target != src:
            new.peers[src].note_replica_created(node, target, 0.0)
            ref.note_created(old.peers[src], node, target, 0.0)
    elif op == "advert":
        sid, node, server = x % n, y % len(ns), (x // n) % n
        new.peers[sid].absorber.absorb_advert(node, (server,))
        ref.absorb_advert(old.peers[sid], node, (server,))


def assert_same(new, ref):
    nodes = range(len(new.ns))
    for a, b in zip(new.peers, ref.system.peers):
        counts = ref.refs[b.sid]
        assert all(c > 0 for c in counts.values())
        assert [v for v in nodes if a.pinned(v)] == sorted(counts)
        assert [(k, list(m)) for k, m in a.maps.items()] == \
            [(k, list(m)) for k, m in b.maps.items()]
        assert [(k, list(m)) for k, m in a.cache.items()] == \
            [(k, list(m)) for k, m in b.cache.items()]
        assert a.hosted_list == b.hosted_list
        assert a.rng.getstate() == b.rng.getstate()


OPS = ("install", "evict", "transfer", "retire", "note", "advert")


class TestDerivedPinsEqualTheRefcount:
    @given(
        shape=st.sampled_from(sorted(SHAPES)),  # balanced, coda, random, graph
        n=st.integers(min_value=16, max_value=120),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_servers=st.sampled_from([2, 3, 5]),
        rmap=st.sampled_from([1, 2, 4]),
        caching=st.booleans(),
        ops=st.lists(
            st.tuples(st.sampled_from(OPS),
                      st.integers(min_value=0, max_value=2**16),
                      st.integers(min_value=0, max_value=2**16)),
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_membership_and_replica_sequences(
        self, shape, n, seed, n_servers, rmap, caching, ops,
    ):
        ns = SHAPES[shape](n, seed)
        cfg = SystemConfig.replicated(
            n_servers=n_servers, rmap=rmap, seed=seed, cache_slots=4,
            caching_enabled=caching, bootstrap_known_peers=0,
        )
        new = build_system(ns, cfg)
        ref = CountedPins(build_system(ns, cfg))
        assert_same(new, ref)
        for op, x, y in ops:
            step(op, x, y, new, ref)
            assert_same(new, ref)

    def test_a_long_sequence_on_one_fleet(self):
        """Hundreds of steps: replicas pile up, servers retire and
        come back through transfers, caches churn."""
        ns = with_cross_links(random_tree(200, seed=4), seed=4)
        cfg = SystemConfig.replicated(n_servers=6, rmap=3, seed=4,
                                      cache_slots=6, bootstrap_known_peers=0)
        new = build_system(ns, cfg)
        ref = CountedPins(build_system(ns, cfg))
        rng = random.Random(4)
        weights = (6, 3, 3, 1, 2, 2)
        for _ in range(400):
            op = rng.choices(OPS, weights)[0]
            step(op, rng.randrange(2**16), rng.randrange(2**16), new, ref)
        assert_same(new, ref)
        assert any(p.replicas for p in new.peers)
