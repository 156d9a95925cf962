"""Unit and property tests for the two closest-member queries.

Routing asks "which member is closest to the destination, first in
iteration order among ties" of the hosted list (answered by the
store's ancestor index) and of the cache (answered by the pruned
LRU-order scan, ``repro.core.routing.scan_cache``).  Both must agree
*exactly* with an unpruned scan over ``ns.distance``: the winner is the
first member in order at a strictly smaller distance.  These tests pin
the contract three ways: direct unit tests, randomized cross-checks
against an explicit ordered-list scan (op lists, and a state machine
that reads after every write), and end-of-workload equivalence on live
peers; ``TestCostModel`` pins what the writes cost and what the index
weighs.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.core.nsindex import NO_BOUND, AncestorIndex
from repro.core.routing import RouteAction, decide, scan_cache
from repro.namespace.generators import (
    balanced_tree,
    random_tree,
    university_tree,
)
from repro.server.cache import LRUCache
from repro.server.replica_store import ReplicaStore
from repro.sim.memsize import deep_sizeof
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream, unif_stream


def ref_closest(ns, order, dest, best_d=NO_BOUND):
    """The unpruned scan both queries must agree with: first member in
    ``order`` at a strictly smaller distance."""
    best = -1
    for v in order:
        d = ns.distance(v, dest)
        if d < best_d:
            best, best_d = v, d
    return best, best_d


def closest_hosted(peer, dest):
    """The store index's reference: a linear scan of the hosted list
    (owned first, then replicas), first entry at a strictly smaller
    distance wins.  Stops at distance 1 -- nothing short of hosting
    ``dest`` beats it -- so it is only comparable for non-hosted dests.
    """
    ns = peer.ns
    best = -1
    best_d = NO_BOUND
    for h in peer.store.hosted_list:
        d = ns.distance(h, dest)
        if d < best_d:
            best, best_d = h, d
            if d == 1:
                break
    return best, best_d


@pytest.fixture(scope="module")
def ns():
    return balanced_tree(levels=5)


class TestBasics:
    def test_empty(self, ns):
        idx = AncestorIndex(ns)
        assert len(idx) == 0
        assert 3 not in idx
        assert idx.closest(3) == (-1, NO_BOUND)

    def test_add_and_query(self, ns):
        idx = AncestorIndex(ns)
        idx.add(0)
        assert 0 in idx
        assert len(idx) == 1
        node, d = idx.closest(0)
        assert (node, d) == (0, 0)

    def test_duplicate_add_rejected(self, ns):
        idx = AncestorIndex(ns)
        idx.add(5)
        with pytest.raises(ValueError):
            idx.add(5)

    def test_remove_is_idempotent(self, ns):
        idx = AncestorIndex(ns)
        idx.add(5)
        idx.remove(5)
        assert 5 not in idx
        idx.remove(5)  # absent: no-op
        assert len(idx) == 0
        assert idx.closest(5) == (-1, NO_BOUND)

    def test_touch_absent_is_noop(self, ns):
        idx = AncestorIndex(ns)
        idx.touch(7)
        assert len(idx) == 0

    def test_seed_members_in_order(self, ns):
        idx = AncestorIndex(ns, [4, 2, 9])
        assert sorted(idx.nodes()) == [2, 4, 9]
        assert len(idx) == 3

    def test_clear_and_rebuild(self, ns):
        idx = AncestorIndex(ns, [1, 2, 3])
        idx.clear()
        assert len(idx) == 0
        idx.rebuild([7, 8])
        assert sorted(idx.nodes()) == [7, 8]

    def test_bound_prunes(self, ns):
        """A caller-supplied bound is a strict-improvement filter."""
        idx = AncestorIndex(ns)
        idx.add(0)  # the root: distance to any node == its depth
        dest = len(ns) - 1  # a leaf
        d = ns.depth[dest]
        assert idx.closest(dest, d + 1) == (0, d)
        assert idx.closest(dest, d) == (-1, d)  # not strictly closer


class TestOrderTieBreak:
    """Equal distance: the *earlier* member in mirrored order wins."""

    def sibling_pair(self, ns):
        """Two children of the root: equidistant from each other's
        subtrees' destinations when probed from outside."""
        kids = ns.children[0]
        assert len(kids) >= 2
        return kids[0], kids[1]

    def test_first_added_wins_tie(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        node, _ = idx.closest(0)
        assert node == a
        idx2 = AncestorIndex(ns, [b, a])
        node2, _ = idx2.closest(0)
        assert node2 == b

    def test_touch_moves_to_back(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        idx.touch(a)  # order is now [b, a]
        node, _ = idx.closest(0)
        assert node == b

    def test_touch_of_last_is_noop(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        idx.touch(b)  # already last: order unchanged
        node, _ = idx.closest(0)
        assert node == a

    def test_readd_after_remove_goes_to_back(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        idx.remove(a)
        idx.add(a)  # order is now [b, a]
        node, _ = idx.closest(0)
        assert node == b


class _OrderMirror:
    """An ordered list driven by the same op stream as the index."""

    def __init__(self):
        self.order = []

    def add(self, v):
        self.order.append(v)

    def touch(self, v):
        if v in self.order:
            self.order.remove(v)
            self.order.append(v)

    def remove(self, v):
        if v in self.order:
            self.order.remove(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "touch", "remove"]),
                          st.integers(0, 62)),
                max_size=120),
       st.integers(0, 2**32 - 1))
def test_index_matches_reference_scan(ops, seed):
    """Randomized op sequences: every (dest, bound) query agrees with
    the explicit ordered-list scan."""
    ns = balanced_tree(levels=5)  # 63 nodes
    idx = AncestorIndex(ns)
    ref = _OrderMirror()
    for op, v in ops:
        if op == "add":
            if v in idx:
                idx.touch(v)
                ref.touch(v)
            else:
                idx.add(v)
                ref.add(v)
        elif op == "touch":
            idx.touch(v)
            ref.touch(v)
        else:
            idx.remove(v)
            ref.remove(v)
    assert sorted(idx.nodes()) == sorted(ref.order)
    rng = random.Random(seed)
    for _ in range(20):
        dest = rng.randrange(len(ns))
        bound = rng.choice([NO_BOUND, rng.randrange(1, 12)])
        assert idx.closest(dest, bound) == ref_closest(
            ns, ref.order, dest, bound)


def assert_matches_scan(ns, idx, order):
    """Every destination, unbounded and under bounds on both sides of
    what a member can achieve."""
    assert sorted(idx.nodes()) == sorted(order)
    for dest in range(len(ns)):
        for bound in (NO_BOUND, 0, 1, 2, 5):
            assert idx.closest(dest, bound) == ref_closest(
                ns, order, dest, bound), (dest, bound)


class TestRowTable:
    """The cases the rank-sorted row table makes special."""

    def test_shallowest_member_added_last_takes_over(self, ns):
        """A newcomer shallower than every member becomes the minimum
        of buckets other rows already name: the sweep after ``add``
        must rewrite them, and only as far out as the newcomer's
        ancestors reach."""
        order = [v for v in ns if ns.depth[v] == ns.max_depth][::3]
        idx = AncestorIndex(ns, order)
        mid = ns.children[ns.children[0][1]][0]  # over a quarter of them
        for v in (mid, 0):
            idx.add(v)
            order.append(v)
            assert_matches_scan(ns, idx, order)

    def test_newcomer_of_equal_depth_takes_nothing_over(self, ns):
        a, b = ns.children[0]
        idx = AncestorIndex(ns, [a])
        idx.add(b)  # as shallow as a, but stamped later
        assert_matches_scan(ns, idx, [a, b])

    def test_several_removes_before_the_next_read(self, ns):
        order = list(range(0, len(ns), 2))
        idx = AncestorIndex(ns, order)
        for v in (0, 2, 30, 62, 4):  # the root, ends and middle of rank order
            idx.remove(v)
            order.remove(v)
        idx.add(31)  # a write while the rows are stale
        order.append(31)
        assert_matches_scan(ns, idx, order)
        for v in list(order):
            idx.remove(v)
        assert idx.closest(5) == (-1, NO_BOUND)

    def test_a_write_leaves_the_rows_to_the_next_read(self, ns):
        """``add`` and ``remove`` edit the member columns only: the row
        table is rebuilt whole by the next read, so a write moves no
        row."""
        order = [v for v in ns if ns.depth[v] == ns.max_depth][::3]
        idx = AncestorIndex(ns, order)
        rows = idx._rows
        before = rows.tobytes()
        idx.add(0)
        idx.remove(order[1])
        idx.add(5)
        assert idx._rows is rows and rows.tobytes() == before
        order = [v for v in order if v != order[1]] + [0, 5]
        assert idx.closest(3) == ref_closest(ns, order, 3)
        assert idx._rows is not rows
        assert len(idx._rows) == len(order) * idx._width

    def test_a_write_burst_costs_one_sweep(self, ns, monkeypatch):
        """Writes only mark the rows stale: adds and removes between
        two reads cost one ``_fill_rows`` at the second read, and the
        answers are the scan's."""
        sweeps = []
        fill = AncestorIndex._fill_rows

        def counted(self):
            sweeps.append(1)
            fill(self)
        monkeypatch.setattr(AncestorIndex, "_fill_rows", counted)
        order = [v for v in ns if ns.depth[v] == ns.max_depth][::3]
        idx = AncestorIndex(ns, order)
        idx.closest(0)
        for burst in (("add", 0), ("add", 5), ("remove", order[1]),
                      ("add", 3), ("remove", 5)), (("add", 1), ("add", 2)):
            for op, v in burst:
                getattr(idx, op)(v)
                if op == "add":
                    order.append(v)
                else:
                    order.remove(v)
            del sweeps[:]
            assert idx.closest(0) == ref_closest(ns, order, 0)
            assert len(sweeps) == 1, burst
            assert_matches_scan(ns, idx, order)
            assert len(sweeps) == 1, burst

    def test_destinations_ranked_outside_the_members(self, ns):
        """Members in one middle subtree: destinations before the first
        and after the last member have a single rank neighbour."""
        left, right = ns.children[0]
        order = ns.subtree(ns.children[left][1])
        pre = ns.preorder
        ranks = sorted(pre[v] for v in order)
        assert any(pre[t] < ranks[0] for t in ns.subtree(left))
        assert all(pre[t] > ranks[-1] for t in ns.subtree(right))
        assert_matches_scan(ns, AncestorIndex(ns, order), order)

    def test_destination_is_a_member(self, ns):
        order = [9, 4, 40, 0, 22]
        idx = AncestorIndex(ns, order)
        for v in order:
            assert idx.closest(v) == (v, 0)
            assert idx.closest(v, 0) == (-1, 0)

    @pytest.mark.parametrize("member", [0, 1, 31, 62])
    def test_one_member(self, ns, member):
        assert_matches_scan(ns, AncestorIndex(ns, [member]), [member])

    def test_extend_onto_members_keeps_their_order(self, ns):
        a, b = ns.children[0]
        idx = AncestorIndex(ns, [b])
        idx.extend([a, 7])
        assert_matches_scan(ns, idx, [b, a, 7])
        with pytest.raises(ValueError):
            idx.extend([9, a])
        assert_matches_scan(ns, idx, [b, a, 7])  # refused whole


_TREES = (balanced_tree(levels=4), random_tree(40, seed=9))
_MEMBER = st.integers(0, 30)


class IndexMachine(RuleBasedStateMachine):
    """Every write the index has, in any order, on a regular and an
    irregular tree; the whole query surface is compared with the
    ordered-list scan after each step, so rows are read stale after
    any mix of adds and removes, and rebuilt."""

    def __init__(self):
        super().__init__()
        self.ref = _OrderMirror()

    @initialize(tree=st.sampled_from(_TREES),
                seed=st.lists(_MEMBER, unique=True, max_size=6))
    def build(self, tree, seed):
        self.ns = tree
        self.idx = AncestorIndex(tree, seed)
        self.ref.order.extend(seed)

    @rule(v=_MEMBER)
    def add(self, v):
        if v in self.ref.order:
            with pytest.raises(ValueError):
                self.idx.add(v)
        else:
            self.idx.add(v)
            self.ref.add(v)

    @rule(batch=st.lists(_MEMBER, unique=True, max_size=8))
    def extend(self, batch):
        batch = [v for v in batch if v not in self.ref.order]
        self.idx.extend(batch)
        self.ref.order.extend(batch)

    @rule(burst=st.lists(_MEMBER, min_size=1, max_size=4))
    def remove(self, burst):
        for v in burst:
            self.idx.remove(v)
            self.ref.remove(v)

    @rule(v=_MEMBER)
    def touch(self, v):
        self.idx.touch(v)
        self.ref.touch(v)

    @rule(data=st.data())
    def rebuild(self, data):
        self.ref.order = list(data.draw(st.permutations(self.ref.order)))
        self.idx.rebuild(self.ref.order)

    @invariant()
    def answers_what_the_scan_answers(self):
        assert len(self.idx) == len(self.ref.order)
        for v in self.ref.order:
            assert v in self.idx
        assert_matches_scan(self.ns, self.idx, self.ref.order)


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)


# one cache op: (name, node, ...) over the 63-node tree and servers 0..3
_NODE = st.integers(0, 62)
_SERVER = st.integers(0, 3)
_CACHE_OP = st.one_of(
    st.tuples(st.just("put"), _NODE, _SERVER),
    st.tuples(st.sampled_from(["get", "touch", "remove"]), _NODE),
    st.tuples(st.just("replace"), _NODE, st.lists(_SERVER, max_size=2)),
    st.tuples(st.just("put_path"),
              st.lists(st.tuples(_NODE, _SERVER), max_size=8)),
)
# what put_path is told to skip: hops served by server 0, hosted nodes
# (server 0 owns nodes 1 and 2 of the owner table, and replicates 3)
_OWN_SID, _REPLICAS = 0, {3: None}
_OWNER = [0 if v in (1, 2) else 1 for v in range(63)]


@settings(max_examples=80, deadline=None)
@given(st.lists(_CACHE_OP, max_size=60), st.integers(0, 2**32 - 1))
def test_cache_scan_matches_reference(ops, seed):
    """Random mutator sequences on a small cache: after every op the
    pruned scan answers what the unpruned ordered-list scan answers,
    and ``put_path`` leaves exactly what the per-hop ``put`` loop (run
    on a twin cache) leaves."""
    ns = balanced_tree(levels=5)  # 63 nodes
    capacity = 5
    cache = LRUCache(capacity=capacity, rmap=2)
    twin = LRUCache(capacity=capacity, rmap=2)
    peer = SimpleNamespace(ns=ns, cache=cache)
    ref = _OrderMirror()
    rng = random.Random(seed)

    def ref_put(v):
        if v in ref.order:
            ref.touch(v)
        else:
            if len(ref.order) >= capacity:
                ref.order.pop(0)
            ref.add(v)

    for op in ops:
        name, args = op[0], op[1:]
        if name == "put_path":
            cache.put_path(args[0], _OWN_SID, _OWNER, _REPLICAS)
            for v, s in args[0]:
                if s != _OWN_SID and _OWNER[v] != _OWN_SID \
                        and v not in _REPLICAS:
                    twin.put(v, (s,))
                    ref_put(v)
        else:
            v = args[0]
            if name == "put":
                ref_put(v)
                args = (v, (args[1],))
            elif name in ("get", "touch"):
                ref.touch(v)
            elif name == "remove" or (name == "replace" and not args[1]):
                ref.remove(v)  # the op empties the entry
            getattr(cache, name)(*args)
            getattr(twin, name)(*args)
        assert list(cache.nodes()) == ref.order
        assert list(cache.items()) == list(twin.items())
        assert cache.evictions == twin.evictions
        # the root is shallower than every other entry; bounds 0 and 1
        # are below any distance a non-dest entry can achieve
        for dest in (0, rng.randrange(len(ns)), rng.randrange(len(ns))):
            for bound in (NO_BOUND, 0, 1, rng.randrange(2, 12)):
                assert scan_cache(peer, dest, bound) == ref_closest(
                    ns, ref.order, dest, bound)


class TestLiveEquivalence:
    """After a real workload, on every peer, the store index answers
    what the hosted-list scan answers and the production cache scan
    answers what an unpruned scan in ``cache.nodes()`` order answers."""

    def test_index_vs_scan_after_workload(self):
        ns = balanced_tree(levels=6)
        cfg = SystemConfig.replicated(n_servers=4, seed=11, cache_slots=8)
        system = build_system(ns, cfg)
        spec = cuzipf_stream(rate=200.0, alpha=1.0, warmup=1.0,
                             phase=1.0, n_phases=2, seed=11)
        WorkloadDriver(system, spec).start()
        system.run_until(spec.duration + 1.0)
        rng = random.Random(3)
        dests = [rng.randrange(len(ns)) for _ in range(200)]
        assert all(len(peer.cache) for peer in system.peers)
        for peer in system.peers:
            assert sorted(peer.store.index.nodes()) == sorted(
                peer.store.hosted_list)
            order = list(peer.cache.nodes())
            for dest in dests:
                if not peer.hosts(dest):
                    # decide() only consults the index for non-hosted
                    # dests; closest_hosted's d==1 early-break makes the
                    # two legitimately differ when dest itself is hosted
                    assert peer.store.index.closest(dest) == (
                        closest_hosted(peer, dest))
                for bound in (NO_BOUND, 1, 2, 4):
                    assert scan_cache(peer, dest, bound) == ref_closest(
                        ns, order, dest, bound)


class TestCostModel:
    """Soft-state writes are O(1): the ancestor index is written only
    when the hosted list changes, however many cache puts a run makes
    (before issue 17 every cache put and eviction walked an index);
    and the index is flat arrays, a fixed few bytes per member."""

    def test_index_writes_equal_hosted_membership_changes(self, monkeypatch):
        calls = {}

        def count(cls, name, weigh=lambda *args: 1):
            inner = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] = calls.get(name, 0) + weigh(*args)
                return inner(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        for name in ("add", "remove", "touch"):
            count(AncestorIndex, name)
        # the build adopts each server's nodes in one bulk write
        count(AncestorIndex, "extend", weigh=len)
        count(ReplicaStore, "install")
        ns = balanced_tree(levels=10)  # 2047 nodes, 256x one cache
        cfg = SystemConfig.replicated(n_servers=16, seed=5, cache_slots=8)
        system = build_system(ns, cfg)
        spec = unif_stream(rate=900.0, duration=2.0, seed=5)
        WorkloadDriver(system, spec).start()
        system.run_until(spec.duration + 1.0)
        # the evicting regime: more cache inserts than members indexed
        assert sum(p.cache.evictions for p in system.peers) > 3000
        # hosted-list changes of a run without membership churn: the
        # build adopts every node once, then replicas come and go
        assert calls["install"] > 0
        assert calls["extend"] == len(ns)
        assert calls["add"] == calls["install"]
        assert calls.get("remove", 0) == (
            system.stats.replicas_evicted.total())
        assert "touch" not in calls
        indexed = calls["extend"] + calls["add"]
        assert indexed - calls.get("remove", 0) == sum(
            len(p.store.hosted_list) for p in system.peers)

    def test_index_weighs_a_row_per_member(self):
        """No container per ancestor: what an index holds beyond the
        namespace's shared arrays is bounded by its member count."""
        ns = balanced_tree(levels=10)
        cfg = SystemConfig.replicated(n_servers=16, seed=5, cache_slots=8)
        system = build_system(ns, cfg)
        seen = set()
        deep_sizeof(ns, seen)  # shared, charged to nobody's index
        for peer in system.peers:
            members = len(peer.store.hosted_list)
            assert deep_sizeof(peer.store.index, seen) <= members * (
                8 * (ns.max_depth + 1) + 160)


def uni_system(**cfg_over):
    ns = university_tree()
    defaults = dict(n_servers=len(ns), seed=1, bootstrap_known_peers=0,
                    digests_enabled=False)
    defaults.update(cfg_over)
    cfg = SystemConfig.replicated(**defaults)
    owner = list(range(len(ns)))
    return ns, build_system(ns, cfg, owner=owner)


class TestDecideGolden:
    """Tie-break precedence of decide(): struct vs cache vs LRU order."""

    def test_cache_needs_strict_improvement(self):
        """A cached node at the same distance as the structural
        candidate does NOT win: cache requires strictly closer."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        peer = system.peers[src]
        base = decide(peer, dst)
        assert base.source == "struct"
        # cache a node at exactly the structural candidate's distance
        same_d = ns.id_of("/university/public/people")
        assert ns.distance(same_d, dst) == base.distance
        peer.cache.put(same_d, [system.owner[same_d]])
        d = decide(peer, dst)
        assert (d.source, d.via) == ("struct", base.via)

    def test_cache_wins_when_strictly_closer(self):
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        peer = system.peers[src]
        closer = ns.id_of("/university")
        peer.cache.put(closer, [system.owner[closer]])
        d = decide(peer, dst)
        assert (d.source, d.via) == ("cache", closer)

    def test_lru_order_breaks_cache_ties(self):
        """Two equidistant cache entries: LRU iteration order decides,
        and a touch (cache hit) flips it."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private/people/staff/Ann")
        peer = system.peers[src]
        a = ns.id_of("/university/private/people")
        b = ns.id_of("/university/private/people/staff/Mary")
        assert ns.distance(a, dst) == ns.distance(b, dst)
        peer.cache.put(a, [system.owner[a]])
        peer.cache.put(b, [system.owner[b]])
        assert decide(peer, dst).via == a  # a is earlier in LRU order
        peer.cache.get(a)  # LRU touch: order becomes [b, a]
        assert decide(peer, dst).via == b

    def test_dead_cache_entry_falls_back_to_struct(self):
        """A winning cache entry whose map dead-ends is dropped and the
        structural candidate is re-used."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        peer = system.peers[src]
        closer = ns.id_of("/university")
        peer.cache.put(closer, [peer.sid])  # only ourselves: dead
        d = decide(peer, dst)
        assert d.action is RouteAction.FORWARD
        assert d.source == "struct"
        assert closer not in list(peer.cache.nodes())  # entry dropped
