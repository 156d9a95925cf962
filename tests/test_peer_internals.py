"""Deeper unit tests of peer internals: pins, maps, adverts, digests."""

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.net.message import AdvertMessage, QueryMessage


def make(n_servers=6, levels=5, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(n_servers=n_servers, seed=21, bootstrap_known_peers=0)
    defaults.update(over)
    return ns, build_system(ns, SystemConfig.replicated(**defaults))


class TestPinning:
    def test_pin_lasts_while_a_hosted_neighbour_does(self):
        """A map two hosted neighbours pin survives the first one's
        eviction and demotes with the second's: ``pinned`` is derived
        from the hosted set, where a refcount used to count it."""
        ns, system = make()
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v) and len(ns.neighbors(v)) >= 2)
        a, b = ns.neighbors(free)[:2]
        for r in (a, b):
            src = system.peers[system.owner[r]]
            p.store.install(src.store.build_payload(r), 0.0)
        assert p.pinned(free) and free in p.maps
        p.store.evict(a, 1.0)
        assert p.pinned(free) and free in p.maps
        p.store.evict(b, 1.0)
        assert not p.pinned(free) and free not in p.maps
        assert free in p.cache  # demoted, not dropped

    def test_pin_does_not_count(self):
        """``pin`` keeps a map, ``unpin`` drops it unless the hosted set
        pins it: pinning twice no longer takes two unpins."""
        ns, system = make()
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v))
        p.pin(free, [1])
        p.pin(free, [2])
        assert p.maps[free] == (1, 2)
        p.unpin(free)
        assert free not in p.maps

    def test_unpin_demotes_to_cache(self):
        ns, system = make()
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v))
        p.pin(free, [3])
        p.unpin(free)
        assert list(p.cache.peek(free)) == [3]

    def test_unpin_no_cache_when_disabled(self):
        ns, system = make(caching_enabled=False)
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v))
        p.pin(free, [3])
        p.unpin(free)
        assert len(p.cache) == 0

    def test_pin_respects_rmap(self):
        ns, system = make(rmap=2)
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v))
        p.pin(free, [1, 2, 3, 4])
        assert len(p.maps[free]) == 2


class TestMergeMapFiltering:
    def test_digest_filtering_drops_refuted_entries(self):
        """Map filtering (section 3.6.2): entries whose known digest
        denies the node are pruned during merges."""
        ns, system = make()
        p = system.peers[0]
        other = system.peers[1]
        node = next(iter(p.owned))
        # p learns other's digest; other's digest does NOT contain node
        p.digest_dir.observe(other.sid, other.digest.snapshot())
        p.merge_map(node, [other.sid])
        assert other.sid not in p.maps[node]

    def test_unknown_digest_entries_kept(self):
        ns, system = make()
        p = system.peers[0]
        node = next(iter(p.owned))
        p.merge_map(node, [4])  # no digest known for server 4
        assert 4 in p.maps[node]

    def test_positive_digest_entries_kept(self):
        ns, system = make()
        p, other = system.peers[0], system.peers[1]
        node = next(iter(p.owned))
        other.digest.add(node)  # other now claims to host it
        p.digest_dir.observe(other.sid, other.digest.snapshot())
        p.merge_map(node, [other.sid])
        assert other.sid in p.maps[node]

    def test_oracle_mode_uses_ground_truth(self):
        ns, system = make(oracle_maps=True)
        p, other = system.peers[0], system.peers[1]
        node = next(iter(p.owned))
        p.merge_map(node, [other.sid])  # other truly does not host it
        assert other.sid not in p.maps[node]

    def test_merge_into_cache_entry(self):
        ns, system = make()
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v))
        p.cache.put(free, [2])
        p.merge_map(free, [3])
        assert set(p.cache.peek(free)) == {2, 3}

    def test_owner_never_filtered_out_of_own_map(self):
        ns, system = make()
        p = system.peers[0]
        node = next(iter(p.owned))
        for _ in range(10):
            p.merge_map(node, [1, 2, 3, 4, 5])
        assert p.sid in p.maps[node]


class TestAdvertAbsorption:
    def test_advert_prepends_to_map(self):
        ns, system = make()
        p = system.peers[0]
        node = next(iter(p.owned))
        p.deliver(AdvertMessage(node, [4]))
        assert p.maps[node][0] == 4

    def test_advert_bounded_by_rmap(self):
        ns, system = make(rmap=2)
        p = system.peers[0]
        node = next(iter(p.owned))
        for s in (2, 3, 4, 5):
            p.deliver(AdvertMessage(node, [s]))
        assert len(p.maps[node]) <= 3  # self + rmap-bounded entries

    def test_advert_never_evicts_self(self):
        ns, system = make(rmap=2)
        p = system.peers[0]
        node = next(iter(p.owned))
        for s in (2, 3, 4, 5, 6):
            p.deliver(AdvertMessage(node, [s]))
        assert p.sid in p.maps[node]

    def test_advert_replaces_a_shared_map(self):
        """The build shares one ``(sid,)`` per server across the fleet:
        an advert at the owner must not reach a context holder's map."""
        ns, system = make()
        p = system.peers[0]
        node = next(v for v in p.owned
                    if any(system.owner[n] != 0 for n in ns.neighbors(v)))
        holder = system.peers[next(system.owner[n] for n in ns.neighbors(node)
                                   if system.owner[n] != 0)]
        assert holder.maps[node] is p.maps[node] == (0,)
        p.deliver(AdvertMessage(node, [4]))
        assert list(p.maps[node]) == [4, 0]
        assert holder.maps[node] == (0,)

    def test_advert_to_cached_entry(self):
        ns, system = make()
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v))
        p.cache.put(free, [1])
        p.deliver(AdvertMessage(free, [2]))
        assert 2 in p.cache.peek(free)

    def test_advert_for_unknown_node_ignored(self):
        ns, system = make()
        p = system.peers[0]
        free = next(v for v in range(len(ns)) if not p.pinned(v)
                    and not p.hosts(v) and v not in p.cache)
        p.deliver(AdvertMessage(free, [2]))
        assert free not in p.maps
        assert free not in p.cache


class TestNoteReplicaCreated:
    def test_map_gets_target_first(self):
        ns, system = make()
        p = system.peers[0]
        node = next(iter(p.owned))
        p.store.note_created(node, 3, 0.0)
        assert p.maps[node][0] == 3
        assert 3 in p.store.adverts_recent[node]

    def test_adverts_recent_bounded(self):
        ns, system = make(rmap=2)
        p = system.peers[0]
        node = next(iter(p.owned))
        for target in (1, 2, 3, 4):
            p.store.note_created(node, target, 0.0)
        assert len(p.store.adverts_recent[node]) == 2
        assert list(p.store.adverts_recent[node]) == [4, 3]  # most recent first

    def test_duplicate_target_moves_to_front(self):
        ns, system = make()
        p = system.peers[0]
        node = next(iter(p.owned))
        p.store.note_created(node, 1, 0.0)
        p.store.note_created(node, 2, 0.0)
        p.store.note_created(node, 1, 0.0)
        assert list(p.store.adverts_recent[node])[0] == 1

    def test_stats_recorded_per_level(self):
        ns, system = make()
        p = system.peers[0]
        node = next(iter(p.owned))
        p.store.note_created(node, 3, 0.0)
        assert system.stats.level_replicas[ns.depth[node]] == 1


class TestQueueEdgeCases:
    def test_zero_queue_size_drops_all_waiting(self):
        ns, system = make(queue_size=0)
        p = system.peers[0]
        dest = next(iter(system.peers[1].owned))
        p.inject(dest, qid=1)  # starts service
        p.inject(dest, qid=2)  # queue full (size 0) -> dropped
        assert p.ingress.n_drops == 1

    def test_ttl_drop(self):
        ns, system = make(max_hops=1)
        p = system.peers[0]
        # destination guaranteed several hops away
        deep = [v for v in range(len(ns))
                if ns.depth[v] == ns.max_depth and not p.hosts(v)]
        dest = next(d for d in deep
                    if not any(p.hosts(a) for a in ns.anc[d]))
        p.inject(dest, qid=1)
        system.engine.run(until=20.0)
        total = system.stats.n_completed + system.stats.n_dropped
        assert total == 1
        # with max_hops=1 distant lookups usually TTL out
        if system.stats.n_dropped:
            assert system.stats.drop_reasons.get("ttl", 0) >= 1


class TestDigestLifecycle:
    def test_install_adds_to_digest(self):
        ns, system = make()
        src, dst = system.peers[0], system.peers[1]
        node = next(iter(src.owned))
        dst.store.install(src.store.build_payload(node), 0.0)
        assert node in dst.digest

    def test_install_clears_stale_cache_entry(self):
        ns, system = make()
        src, dst = system.peers[0], system.peers[1]
        node = next(iter(src.owned))
        dst.cache.put(node, [src.sid])
        dst.store.install(src.store.build_payload(node), 0.0)
        assert node not in dst.cache

    def test_digest_version_monotone(self):
        ns, system = make()
        src, dst = system.peers[0], system.peers[1]
        node = next(iter(src.owned))
        v0 = dst.digest.version
        dst.store.install(src.store.build_payload(node), 0.0)
        v1 = dst.digest.version
        dst.store.evict(node, 1.0)
        v2 = dst.digest.version
        assert v0 < v1 < v2


class TestUnpinHostedRegression:
    def test_unpin_never_strips_hosted_map(self):
        """Regression (found by hypothesis): evicting a replica whose
        namespace neighbor is an *owned* node must not remove the owned
        node's map when its pin count reaches zero."""
        ns, system = make(n_servers=4, levels=4)
        p, other = system.peers[0], system.peers[1]
        # find a replica candidate adjacent to one of p's owned nodes
        owned = next(iter(p.owned))
        nbr = next(n for n in ns.neighbors(owned) if not p.hosts(n))
        src = system.peers[system.owner[nbr]]
        p.store.install(src.store.build_payload(nbr), 0.0)
        assert owned in p.maps
        p.store.evict(nbr, 1.0)
        assert owned in p.maps          # the owned node keeps its map
        assert p.sid in p.maps[owned]
        from repro.server.state import audit_peer
        audit_peer(p)


class TestWrongLengthDigest:
    def test_refused_on_arrival_and_the_peer_keeps_serving(self):
        """A well-formed query whose piggybacked digest is one word long
        (the codec round-trips it) must not reach ``digest_shortcut``:
        probing it with the fleet's positions raised out of
        ``_finish_service`` before ``in_service`` was cleared, and the
        peer never served another query."""
        ns, system = make(n_servers=8)
        p = system.peers[3]
        remote = [v for v in range(len(ns)) if not p.hosts(v)]
        q = QueryMessage(10**6, remote[0], 0, 0.0)
        q.sender = 0
        q.sender_digest = (10**9, bytes(8))
        p.deliver(q)
        system.engine.run(until=5.0)
        assert p.digest_dir.n_rejected == 1
        assert p.digest_dir.get(0) is None
        assert not p.ingress.in_service and p.n_processed == 1
        # the parent commit raised IndexError out of the third of these
        # decisions, the first to probe the stored one-word vector
        for i, dest in enumerate(remote[1:40]):
            system.inject(3, dest)
            system.engine.run(until=6.0 + i)
        assert p.n_processed >= 40 and not p.ingress.in_service
        assert system.stats.n_completed == 40  # the scripted one included
        assert sum(x.digest_dir.n_rejected for x in system.peers) == 1
