"""Representation equivalence: CSR/arena Namespace vs the old tuple form.

The arena refactor must be observationally identical to the boxed
tuple-of-tuples representation it replaced.  ``_ReferenceNamespace``
below is a retained copy of that original construction (tuples for
``parent``/``depth``/``children``/``anc``, eagerly materialised names);
hypothesis generates random trees and every query method is
cross-checked value-for-value.
"""

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

from repro.namespace.generators import coda_like_tree, random_tree
from repro.namespace.tree import ROOT, Namespace


class _ReferenceNamespace:
    """The pre-arena construction, kept verbatim as the test oracle."""

    def __init__(self, parent, label, children):
        n = len(parent)
        self.parent = tuple(parent)
        self._label = tuple(label)
        self.children = tuple(tuple(c) for c in children)
        depth = [0] * n
        anc = [()] * n
        anc[ROOT] = (ROOT,)
        for v in range(1, n):
            p = parent[v]
            depth[v] = depth[p] + 1
            anc[v] = anc[p] + (v,)
        self.depth = tuple(depth)
        self.anc = tuple(anc)
        self.max_depth = max(depth)
        names = [""] * n
        names[ROOT] = "/"
        for v in range(1, n):
            names[v] = "/" + "/".join(self._label[u] for u in anc[v][1:])
        self.names = tuple(names)
        self.name_index = {nm: v for v, nm in enumerate(names)}

    def lca_depth(self, a, b):
        aa, ab = self.anc[a], self.anc[b]
        n = min(len(aa), len(ab))
        d = 0
        while d < n and aa[d] == ab[d]:
            d += 1
        return d - 1

    def distance(self, a, b):
        return self.depth[a] + self.depth[b] - 2 * self.lca_depth(a, b)

    def step_toward(self, a, b):
        ab = self.anc[b]
        da = self.depth[a]
        if da < len(ab) and ab[da] == a:
            return ab[da + 1]
        return self.parent[a]

    def subtree(self, v):
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self.children[u]))
        return out

    def neighbors(self, v):
        if v == ROOT:
            return self.children[v]
        return (self.parent[v],) + self.children[v]

    def level_sizes(self):
        sizes = [0] * (self.max_depth + 1)
        for d in self.depth:
            sizes[d] += 1
        return sizes


def _labels(ns: Namespace):
    """Each node's last path component (empty for the root)."""
    return [ns.name_of(v).rpartition("/")[2] for v in range(len(ns))]


def _reference_of(ns: Namespace) -> _ReferenceNamespace:
    return _ReferenceNamespace(
        list(ns.parent),
        _labels(ns),
        [list(ns.children[v]) for v in range(len(ns))],
    )


def _cross_check(ns: Namespace, pairs_seed: int = 0) -> None:
    ref = _reference_of(ns)
    n = len(ns)
    assert list(ns.parent) == list(ref.parent)
    assert list(ns.depth) == list(ref.depth)
    assert ns.max_depth == ref.max_depth
    for v in range(n):
        assert tuple(ns.anc[v]) == ref.anc[v]
        assert tuple(ns.children[v]) == ref.children[v]
        assert tuple(ns.neighbors(v)) == tuple(ref.neighbors(v))
        sub = ns.subtree(v)
        assert sub == ref.subtree(v)
        # depth-first ranks: a subtree is one contiguous range
        assert sorted(ns.preorder[u] for u in sub) == list(
            range(ns.preorder[v], ns.preorder[v] + len(sub)))
        name = ns.name_of(v)
        assert name == ref.names[v]
        assert ns.id_of(name) == v
    assert ns.level_sizes() == ref.level_sizes()
    rng = random.Random(pairs_seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
    for a, b in pairs:
        assert ns.lca_depth(a, b) == ref.lca_depth(a, b)
        assert ns.distance(a, b) == ref.distance(a, b)
        if a != b:
            assert ns.step_toward(a, b) == ref.step_toward(a, b)


class TestFixedTrees:
    def test_coda_like(self):
        _cross_check(coda_like_tree(n_nodes=2000, seed=3), pairs_seed=1)

    def test_preferential(self):
        _cross_check(random_tree(800, seed=5, attach_power=1.5), pairs_seed=2)

    def test_single_root(self):
        ns = Namespace(parent=[0], label=[""])
        _cross_check(ns)
        assert ns.subtree(ROOT) == [ROOT]
        assert ns.neighbors(ROOT) == ()


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**20),
        power=st.sampled_from([0.0, 0.8, 2.0]),
    )
    def test_random_trees_match_reference(self, n, seed, power):
        ns = random_tree(n, seed=seed, attach_power=power)
        _cross_check(ns, pairs_seed=seed)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_explicit_children_constructor(self, n, seed):
        """The explicit-children constructor path matches the derived one."""
        base = random_tree(n, seed=seed)
        ns = Namespace(
            list(base.parent),
            _labels(base),
            [list(base.children[v]) for v in range(n)],
        )
        _cross_check(ns, pairs_seed=seed)
