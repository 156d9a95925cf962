"""Property-based tests (hypothesis) on core data structures and
protocol invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.maps import merge_maps
from repro.core.ranking import NodeRanking
from repro.filters.bloom import BloomFilter
from repro.filters.digest import Digest, DigestDirectory
from repro.namespace.generators import random_tree
from repro.namespace.name import join, split
from repro.sim.rng import ZipfSampler
from repro.sim.stats import WindowAverager


# ---------------------------------------------------------------------------
# namespace distance is a metric; routing paths are geodesics
# ---------------------------------------------------------------------------

trees = st.integers(min_value=2, max_value=120).flatmap(
    lambda n: st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: random_tree(n, seed=seed)
    )
)


@given(trees, st.data())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_distance_is_a_metric(ns, data):
    n = len(ns)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    dab = ns.distance(a, b)
    assert dab >= 0
    assert (dab == 0) == (a == b)
    assert dab == ns.distance(b, a)  # symmetry
    assert dab <= ns.distance(a, c) + ns.distance(c, b)  # triangle


@given(trees, st.data())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_route_path_is_geodesic(ns, data):
    n = len(ns)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    path = ns.route_path(a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == ns.distance(a, b) + 1
    # consecutive path nodes are namespace neighbors
    for u, v in zip(path, path[1:]):
        assert v in ns.neighbors(u)
    # distance decreases strictly along the path (incremental progress)
    dists = [ns.distance(v, b) for v in path]
    assert dists == sorted(dists, reverse=True)
    assert len(set(dists)) == len(dists)


@given(trees, st.data())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_lca_properties(ns, data):
    n = len(ns)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    l = ns.lca(a, b)
    assert ns.is_ancestor(l, a)
    assert ns.is_ancestor(l, b)
    # deepest common ancestor: l's children toward a and b differ
    assert ns.depth[l] == ns.lca_depth(a, b)


# ---------------------------------------------------------------------------
# names round-trip
# ---------------------------------------------------------------------------

components = st.lists(
    st.text(
        alphabet=st.characters(
            blacklist_characters="/\x00", blacklist_categories=("Cs",)
        ),
        min_size=1,
        max_size=8,
    ).filter(lambda c: c not in (".", "..")),
    min_size=0,
    max_size=6,
)


@given(components)
def test_name_split_join_roundtrip(comps):
    name = join(*comps)
    assert split(name) == tuple(comps)


# ---------------------------------------------------------------------------
# Bloom filter: no false negatives, ever
# ---------------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=2**62), max_size=200),
    st.integers(min_value=64, max_value=2048),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40)
def test_bloom_no_false_negatives(keys, bits, hashes):
    bf = BloomFilter(bits, hashes)
    bf.add_many(keys)
    for k in keys:
        assert k in bf


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=100))
def test_bloom_snapshot_equivalent_to_filter(keys):
    bf = BloomFilter(512, 4)
    bf.add_many(keys)
    snap = bf.snapshot()
    for k in list(keys) + [1, 2, 3]:
        assert bf.test_snapshot(snap, k) == (k in bf)


# ---------------------------------------------------------------------------
# map merging invariants
# ---------------------------------------------------------------------------

server_lists = st.lists(st.integers(0, 50), max_size=12)


@given(server_lists, server_lists, st.integers(1, 8),
       st.lists(st.integers(0, 50), max_size=4, unique=True),
       st.integers(0, 2**31 - 1))
def test_merge_maps_invariants(mine, incoming, rmap, advertised, seed):
    rng = random.Random(seed)
    out = merge_maps(mine, incoming, rmap, rng, advertised=advertised)
    # bounded and duplicate-free
    assert len(out) <= rmap
    assert len(set(out)) == len(out)
    # only known servers appear
    assert set(out) <= set(mine) | set(incoming) | set(advertised)
    # advertised entries kept first, up to rmap
    kept_adverts = advertised[:rmap]
    assert out[: len(kept_adverts)] == kept_adverts
    # nothing dropped while room remains
    pool = set(mine) | set(incoming) | set(advertised)
    assert len(out) == min(rmap, len(pool))


def merge_maps_reference(mine, incoming, rmap, rng, advertised=()):
    """``merge_maps`` as it stood before it lost its sets and temporary
    lists (issue 21): the reference for lists *and* RNG draws."""
    out = []
    seen = set()
    for s in advertised:
        if s not in seen:
            out.append(s)
            seen.add(s)
            if len(out) >= rmap:
                return out
    pool = [s for s in list(mine) + list(incoming) if s not in seen]
    deduped = []
    pseen = set()
    for s in pool:
        if s not in pseen:
            deduped.append(s)
            pseen.add(s)
    room = rmap - len(out)
    if len(deduped) <= room:
        out.extend(deduped)
    else:
        out.extend(rng.sample(deduped, room))
    return out


@given(server_lists, server_lists, st.integers(1, 8),
       st.lists(st.integers(0, 50), max_size=6),
       st.integers(0, 2**31 - 1))
def test_merge_maps_equals_its_set_based_reference(
    mine, incoming, rmap, advertised, seed
):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert merge_maps(mine, incoming, rmap, rng, advertised) == \
        merge_maps_reference(mine, incoming, rmap, ref_rng, advertised)
    # every fingerprint rides on the draws, not just on the lists
    assert rng.getstate() == ref_rng.getstate()


# ---------------------------------------------------------------------------
# the bulk digest probe equals the per-server tests it replaced
# ---------------------------------------------------------------------------

@given(
    hosted=st.lists(st.lists(st.integers(0, 40), max_size=12),
                    min_size=1, max_size=6),
    known=st.lists(st.booleans(), min_size=6, max_size=6),
    servers=st.lists(st.integers(0, 7), max_size=8),
    node=st.integers(0, 40),
    own=st.integers(0, 7),
)
def test_undenied_equals_the_per_server_tests(hosted, known, servers, node, own):
    # a filter this small is nearly full: false positives are common
    ref = Digest(capacity=8, fp_rate=0.3)
    ddir = DigestDirectory(ref)
    for sid, nodes in enumerate(hosted):
        if known[sid]:  # servers 6 and 7, and the rest, have no snapshot
            digest = Digest.like(ref, owner_server=sid)
            for n in nodes:
                digest.add(n)
            ddir.observe(sid, digest.snapshot())
    # routing._select_filtered's comprehension: drops the selecting server
    assert ddir.undenied(servers, node, drop=own) == [
        s for s in servers if s != own and ddir.test(s, node) is not False
    ]
    # Peer._filter_servers': always keeps the peer's own sid
    assert ddir.undenied(servers, node, keep=own) == [
        s for s in servers if s == own or ddir.test(s, node) is not False
    ]


# ---------------------------------------------------------------------------
# ranking invariants
# ---------------------------------------------------------------------------

@given(
    st.dictionaries(st.integers(0, 30), st.floats(0, 1e6), max_size=12),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_top_k_for_fraction_is_minimal_prefix(weights, fraction):
    r = NodeRanking()
    for node, w in weights.items():
        r.track(node)
        r.hit(node, w)
    top = r.top_k_for_fraction(fraction)
    if not weights:
        assert top == []
        return
    assert len(top) >= 1
    ranked = [n for n, _ in r.ranked()]
    # the selection is a prefix of the ranking
    assert top == ranked[: len(top)]
    total = sum(weights.values())
    if total > 0:
        got = sum(weights[n] for n in top)
        # the ranking sums in rank order, this test in dict order: the
        # two totals differ by rounding, relative to their size
        slack = 1e-9 * total
        assert got >= fraction * total - slack
        # minimality: dropping the last element breaks the target
        if len(top) > 1:
            assert got - weights[top[-1]] < fraction * total + slack


@given(st.dictionaries(
    st.integers(0, 30),
    st.floats(min_value=1e-3, max_value=1e6, allow_subnormal=False),
    min_size=1, max_size=12,
))
def test_rescale_preserves_ranking_order(weights):
    # ties (including float-underflow-induced ones) may legitimately
    # reorder by node id, so only well-separated weights are asserted
    r = NodeRanking(decay=0.3)
    for node, w in weights.items():
        r.track(node)
        r.hit(node, w)
    sep = sorted(weights.values())
    if any(b - a < 1e-9 * max(b, 1.0) for a, b in zip(sep, sep[1:])):
        return
    before = [n for n, _ in r.ranked()]
    r.rescale()
    assert [n for n, _ in r.ranked()] == before


# ---------------------------------------------------------------------------
# Zipf sampler
# ---------------------------------------------------------------------------

@given(st.integers(1, 500), st.floats(0.0, 3.0), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_zipf_samples_in_range(n, alpha, seed):
    z = ZipfSampler(n, alpha)
    rng = random.Random(seed)
    for _ in range(20):
        assert 0 <= z.sample(rng) < n


@given(st.integers(2, 300), st.floats(0.1, 3.0))
@settings(max_examples=40)
def test_zipf_pmf_normalised_and_monotone(n, alpha):
    z = ZipfSampler(n, alpha)
    pm = [z.pmf(i) for i in range(n)]
    assert abs(sum(pm) - 1.0) < 1e-6
    assert all(a >= b - 1e-12 for a, b in zip(pm, pm[1:]))


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
       st.integers(1, 15))
def test_smoothing_bounded_by_extremes(series, window):
    out = WindowAverager.smooth(series, window)
    assert len(out) == len(series)
    lo, hi = min(series), max(series)
    assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in out)


# ---------------------------------------------------------------------------
# routing decision invariants on randomized system snapshots
# ---------------------------------------------------------------------------

@given(
    st.integers(0, 2**16),       # build seed
    st.integers(4, 8),           # levels
    st.data(),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_routing_decision_invariants(seed, levels, data):
    from repro.cluster.builder import build_system
    from repro.cluster.config import SystemConfig
    from repro.core import routing
    from repro.namespace.generators import balanced_tree

    ns = balanced_tree(levels=levels)
    cfg = SystemConfig.replicated(n_servers=4, seed=seed,
                                  digest_probe_limit=1,
                                  bootstrap_known_peers=0)
    system = build_system(ns, cfg)
    peer = system.peers[data.draw(st.integers(0, 3))]
    # salt the soft state with random cache entries and digests
    for _ in range(data.draw(st.integers(0, 8))):
        node = data.draw(st.integers(0, len(ns) - 1))
        server = data.draw(st.integers(0, 3))
        peer.cache.put(node, [server])
    other = system.peers[(peer.sid + 1) % 4]
    peer.digest_dir.observe(other.sid, other.digest.snapshot())

    dest = data.draw(st.integers(0, len(ns) - 1))
    decision = routing.decide(peer, dest)

    if peer.hosts(dest):
        assert decision.action is routing.RouteAction.RESOLVED
        return
    assert decision.action is routing.RouteAction.FORWARD
    # never forwards to itself
    assert decision.next_server != peer.sid
    assert 0 <= decision.next_server < 4
    # the candidate is strictly closer to the destination than the
    # closest hosted node (incremental progress, section 2.2.2)
    closest = min(ns.distance(h, dest) for h in peer.store.hosted_list)
    assert ns.distance(decision.via, dest) < closest
    assert decision.distance == ns.distance(decision.via, dest)
