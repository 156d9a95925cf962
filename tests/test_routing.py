"""Unit tests for the routing procedure, including the paper's Fig. 1
and Fig. 2 walk-throughs."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.core.routing import RouteAction, decide
from repro.experiments.common import rate_for_utilization
from repro.namespace.generators import balanced_tree, university_tree
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream


def uni_system(**cfg_over):
    """University tree with one server per node (owner = node id order)."""
    ns = university_tree()
    defaults = dict(n_servers=len(ns), seed=1, bootstrap_known_peers=0)
    defaults.update(cfg_over)
    cfg = SystemConfig.replicated(**defaults)
    owner = list(range(len(ns)))  # server i owns node i
    system = build_system(ns, cfg, owner=owner)
    return ns, system


class TestResolution:
    def test_owned_resolves(self):
        ns, system = uni_system()
        v = ns.id_of("/university/public")
        d = decide(system.peers[v], v)
        assert d.action is RouteAction.RESOLVED
        assert d.distance == 0

    def test_replica_resolves(self):
        """Lookup queries can be resolved by reaching a replica
        (paper constraint 1, section 2.3)."""
        ns, system = uni_system()
        target = ns.id_of("/university/private/people")
        owner_peer = system.peers[target]
        other = system.peers[ns.id_of("/university/public/people")]
        payload = owner_peer.store.build_payload(target)
        other.store.install(payload, now=0.0)
        d = decide(other, target)
        assert d.action is RouteAction.RESOLVED


class TestDirectAndStructural:
    def test_neighbor_map_gives_direct_hop(self):
        ns, system = uni_system()
        parent = ns.id_of("/university/public")
        child = ns.id_of("/university/public/people")
        d = decide(system.peers[parent], child)
        assert d.action is RouteAction.FORWARD
        assert d.via == child
        assert d.next_server == child  # owner == node id
        assert d.distance == 0

    def test_structural_step_climbs_toward_lca(self):
        ns, system = uni_system(digests_enabled=False, caching_enabled=False)
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        d = decide(system.peers[src], dst)
        assert d.action is RouteAction.FORWARD
        assert d.via == ns.id_of("/university/public/people")
        assert d.source == "struct"

    def test_structural_step_descends_when_ancestor(self):
        ns, system = uni_system(digests_enabled=False, caching_enabled=False)
        root_owner = system.peers[0]  # owns "/"
        dst = ns.id_of("/university/private/people/staff/Ann")
        d = decide(root_owner, dst)
        assert d.via == ns.id_of("/university")

    def test_progress_is_incremental(self):
        """Each structural decision strictly decreases namespace
        distance (paper section 2.2.2)."""
        ns, system = uni_system(digests_enabled=False, caching_enabled=False)
        dst = ns.id_of("/university/private/people/faculty/Lisa")
        cur = ns.id_of("/university/public/people/students/John")
        dist = ns.distance(cur, dst)
        hops = 0
        while cur != dst:
            d = decide(system.peers[cur], dst)
            if d.action is RouteAction.RESOLVED:
                break
            assert d.action is RouteAction.FORWARD
            new_dist = ns.distance(d.via, dst)
            assert new_dist < dist
            cur, dist = d.next_server, new_dist
            hops += 1
            assert hops < 20

    def test_full_route_follows_up_down_path(self):
        """Without caches/digests the hop sequence is the canonical
        up-then-down path of paper Fig. 1 step semantics."""
        ns, system = uni_system(digests_enabled=False, caching_enabled=False)
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        walked = [src]
        cur = src
        while True:
            d = decide(system.peers[cur], dst)
            if d.action is RouteAction.RESOLVED:
                break
            cur = d.next_server
            walked.append(cur)
        assert walked == ns.route_path(src, dst)


class TestCacheShortcuts:
    def test_cached_destination_wins(self):
        ns, system = uni_system(digests_enabled=False)
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private/people/staff/Ann")
        peer = system.peers[src]
        peer.cache.put(dst, [dst])
        d = decide(peer, dst)
        assert d.source == "cache"
        assert d.via == dst
        assert d.distance == 0

    def test_cached_near_node_beats_structural(self):
        ns, system = uni_system(digests_enabled=False)
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private/people/staff/Ann")
        near = ns.id_of("/university/private/people")
        peer = system.peers[src]
        peer.cache.put(near, [near])
        d = decide(peer, dst)
        assert d.source == "cache"
        assert d.via == near
        assert d.distance == ns.distance(near, dst)

    def test_far_cache_entry_ignored(self):
        ns, system = uni_system(digests_enabled=False)
        src = ns.id_of("/university/public/people")
        dst = ns.id_of("/university/public/people/students")
        far = ns.id_of("/university/private/people/staff")
        peer = system.peers[src]
        peer.cache.put(far, [far])
        d = decide(peer, dst)
        assert d.source == "direct"  # child map wins at distance 0

    def test_grandchild_routes_through_child(self):
        ns, system = uni_system(digests_enabled=False)
        src = ns.id_of("/university/public/people")
        dst = ns.id_of("/university/public/people/students/John")
        d = decide(system.peers[src], dst)
        assert d.source == "struct"
        assert d.via == ns.id_of("/university/public/people/students")
        assert d.distance == 1

    def test_dead_cache_entry_removed_and_fallback(self):
        """A cache entry whose only host is this server is useless;
        routing drops it and falls back to the structural hop."""
        ns, system = uni_system(digests_enabled=False)
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private/people/staff/Ann")
        near = ns.id_of("/university/private/people/staff")
        peer = system.peers[src]
        peer.cache.put(near, [peer.sid])  # bogus self-pointing entry
        d = decide(peer, dst)
        assert d.source == "struct"
        assert near not in peer.cache


class TestDigestShortcuts:
    def test_fig2_digest_hit_skips_intermediate_node(self):
        """Paper Fig. 2: server S hosts .../people/faculty and
        .../students/John; its cache points Steve -> S_d; S_d's digest
        contains /university/public, so S forwards straight to S_d,
        skipping /university/public/people."""
        ns, system = uni_system(caching_enabled=True)
        s = system.peers[ns.id_of("/university/public/people/faculty")]
        john = ns.id_of("/university/public/people/students/John")
        s.adopt_nodes((john,))  # S hosts both nodes, as in the figure

        # S_d hosts /university/public (plus Steve, whose map S caches)
        pub = ns.id_of("/university/public")
        steve = ns.id_of("/university/public/people/students/Steve")
        s_d = system.peers[ns.id_of("/university/private/people/staff/Mary")]
        for node in (pub, steve):
            s_d.adopt_nodes((node,))
        s.cache.put(steve, [s_d.sid])
        s.digest_dir.observe(s_d.sid, s_d.digest.snapshot())

        # a query destined to /university/public at S would normally
        # climb via /university/public/people (structural candidate,
        # distance 1); the digest hit on /university/public itself at
        # S_d reaches distance 0 and skips the people node entirely.
        d = decide(s, pub)
        assert d.source == "digest"
        assert d.via == pub
        assert d.next_server == s_d.sid
        assert d.distance == 0

    def test_digest_not_probed_when_no_gain_possible(self):
        ns, system = uni_system()
        parent = ns.id_of("/university/public")
        child = ns.id_of("/university/public/people")
        # direct map exists (distance 0): digest cannot improve
        d = decide(system.peers[parent], child)
        assert d.source == "direct"

    def test_stale_digest_can_mislead(self):
        """Digest hits are soft state: a stale snapshot may route to a
        server that evicted the node -- the query still progresses via
        that server's own state (verified at system level), and here we
        just confirm the stale shortcut is taken."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private/people/staff/Ann")
        anc = ns.id_of("/university/private/people/staff")
        peer = system.peers[src]
        other = system.peers[ns.id_of("/university/public")]
        other.digest.add(anc)  # other claims to host the ancestor
        peer.digest_dir.observe(other.sid, other.digest.snapshot())
        other.digest.rebuild([])  # ...then evicts it (snapshot now stale)
        d = decide(peer, dst)
        assert d.source == "digest"
        assert d.next_server == other.sid


class TestFailure:
    def test_fail_when_no_next_hop(self):
        ns, system = uni_system(digests_enabled=False, caching_enabled=False)
        src = ns.id_of("/university/public/people/students")
        peer = system.peers[src]
        dst = ns.id_of("/university/private")
        # sabotage every map so no forwarding choice remains
        for node in list(peer.maps):
            peer.maps[node] = []
        d = decide(peer, dst)
        assert d.action is RouteAction.FAIL


def inferable_names(peer, dest):
    """Gen(S): every node id the server can infer (paper section 3.6.1).

    Hosted, neighboring, and cached node ids, the destination, plus --
    via "prefix extraction" -- all of their ancestors up to the root.
    The digest-shortcut discovery procedure in its full generality;
    ``digest_shortcut`` probes only the destination's own ancestor
    chain, which contains every candidate that can actually improve on
    map-based routing toward ``dest``.
    """
    ns = peer.ns
    out = set()
    seeds = set(peer.store.hosted_list)
    seeds.update(peer.maps.keys())
    seeds.update(peer.cache.nodes())
    seeds.add(dest)
    for v in seeds:
        out.update(ns.anc[v])
    return sorted(out)


class TestInferableNames:
    def test_gen_s_includes_all_prefixes(self):
        """Gen(S) contains hosted, neighboring, cached names, the
        destination, and all their ancestors (paper section 3.6.1)."""
        ns, system = uni_system()
        sid = ns.id_of("/university/public/people/faculty")
        peer = system.peers[sid]
        steve = ns.id_of("/university/public/people/students/Steve")
        peer.cache.put(steve, [3])
        dst = ns.id_of("/university/private/people/staff/Ann")
        gen = set(inferable_names(peer, dst))
        for name in (
            "/",
            "/university",
            "/university/public",
            "/university/public/people",
            "/university/public/people/faculty",
            "/university/public/people/students",  # ancestor of cached Steve
            "/university/private/people/staff/Ann",  # the destination
            "/university/private/people",  # ancestor of the destination
        ):
            assert ns.id_of(name) in gen


class TestFig1Walkthrough:
    def test_replica_forwarding_equivalence(self):
        """Fig. 1 steps C-D: the owner of /university/public/people
        hosts a replica of /university/private/people; a query for
        /university/private reaching it is forwarded directly up the
        replica's child-parent link (step D), with no detour through
        the private subtree's owners."""
        ns, system = uni_system(digests_enabled=False)
        pub_people = ns.id_of("/university/public/people")
        priv_people = ns.id_of("/university/private/people")
        priv = ns.id_of("/university/private")

        host = system.peers[pub_people]
        owner = system.peers[priv_people]
        host.store.install(owner.store.build_payload(priv_people), 0.0)

        d = decide(host, priv)
        assert d.action is RouteAction.FORWARD
        assert d.via == priv  # neighbor map from the replica's context
        assert d.next_server == priv  # /university/private's owner
        assert d.distance == 0


class TestSelectionFiltering:
    """Map filtering at replica selection (paper section 3.7)."""

    def test_digest_denied_entries_skipped(self):
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/public/people")
        peer = system.peers[src]
        phantom = system.peers[ns.id_of("/university/private")]
        # the direct map for dst gains a phantom host; its digest says no
        peer.maps[dst] = (*peer.maps[dst], phantom.sid)
        peer.digest_dir.observe(phantom.sid, phantom.digest.snapshot())
        for _ in range(30):
            d = decide(peer, dst)
            assert d.next_server != phantom.sid

    def test_unknown_digest_entries_still_selectable(self):
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/public/people")
        peer = system.peers[src]
        peer.maps[dst] = (*peer.maps[dst], 7)  # no digest for server 7
        chosen = {decide(peer, dst).next_server for _ in range(50)}
        assert 7 in chosen

    def test_all_denied_falls_back_instead_of_failing(self):
        """Stale digests must never black-hole a reachable node."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/public/people")
        peer = system.peers[src]
        owner = system.peers[dst]
        # observe a digest snapshot for the true owner that predates it
        # hosting anything (empty) -> the filter would deny everything
        from repro.filters.digest import Digest
        empty = Digest.like(owner.digest, owner_server=owner.sid)
        peer.digest_dir.observe(owner.sid, (10**9, empty.snapshot()[1]))
        d = decide(peer, dst)
        assert d.action is RouteAction.FORWARD
        assert d.next_server == owner.sid  # fallback keeps it reachable


class TestHopLimitLoop:
    """ROADMAP item A: a stale or false-positive digest answer in
    ``digest_shortcut`` sends a lookup round a loop until its hop limit
    drops it.  Witnessed on ``sim_hotspot``'s inputs, two phases long;
    this flips to passing when the loop is stopped (A(2))."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP A: digest_shortcut re-forwards on a stale or false-"
        "positive digest answer, so lookups loop until the hop limit"))
    @pytest.mark.parametrize("seed", [1, 4])
    def test_no_lookup_hits_the_hop_limit(self, seed):
        ns = balanced_tree(levels=11)
        system = build_system(ns, SystemConfig.replicated(
            n_servers=64, cache_slots=16, digest_probe_limit=2, seed=seed))
        spec = cuzipf_stream(rate_for_utilization(0.4, 64), alpha=1.0,
                             warmup=1.0, phase=1.0, n_phases=2, seed=seed)
        WorkloadDriver(system, spec).start()
        system.run_until(spec.duration + 6.0)
        assert system.stats.drop_reasons.get("ttl", 0) == 0
