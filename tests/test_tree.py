"""Unit tests for the Namespace tree and its distance metric."""

import pytest

from repro.namespace.tree import Namespace, NamespaceBuilder, ROOT
from tests.test_routing import route_path


@pytest.fixture
def small():
    """Root with two subtrees:

    /a, /a/x, /a/y, /b, /b/z
    """
    b = NamespaceBuilder()
    a = b.add_child(ROOT, "a")
    x = b.add_child(a, "x")
    y = b.add_child(a, "y")
    bb = b.add_child(ROOT, "b")
    z = b.add_child(bb, "z")
    return b.build(), dict(a=a, x=x, y=y, b=bb, z=z)


class TestBuilder:
    def test_root_exists(self):
        ns = NamespaceBuilder().build()
        assert len(ns) == 1
        assert ns.parent[ROOT] == ROOT

    def test_add_child_rejects_bad_parent(self):
        b = NamespaceBuilder()
        with pytest.raises(IndexError):
            b.add_child(5, "x")

    def test_add_child_rejects_bad_label(self):
        b = NamespaceBuilder()
        with pytest.raises(ValueError):
            b.add_child(ROOT, "a/b")
        with pytest.raises(ValueError):
            b.add_child(ROOT, "")

    def test_add_path_dedupes(self):
        b = NamespaceBuilder()
        v1 = b.add_path("/a/b")
        v2 = b.add_path("/a/b")
        assert v1 == v2
        assert len(b) == 3  # root, a, b

    def test_from_names(self):
        ns = Namespace.from_names(["/a/b/c", "/a/d"])
        assert len(ns) == 5
        assert ns.id_of("/a/b") >= 0


class TestNames:
    def test_name_roundtrip(self, small):
        ns, ids = small
        for label, v in ids.items():
            assert ns.id_of(ns.name_of(v)) == v

    def test_root_name(self, small):
        ns, _ = small
        assert ns.name_of(ROOT) == "/"

    def test_unknown_name_raises(self, small):
        ns, _ = small
        with pytest.raises(KeyError):
            ns.id_of("/nope")


class TestStructure:
    def test_depths(self, small):
        ns, ids = small
        assert ns.depth[ROOT] == 0
        assert ns.depth[ids["a"]] == 1
        assert ns.depth[ids["x"]] == 2
        assert ns.max_depth == 2

    def test_neighbors_of_root(self, small):
        ns, ids = small
        assert set(ns.neighbors(ROOT)) == {ids["a"], ids["b"]}

    def test_neighbors_include_parent(self, small):
        ns, ids = small
        assert set(ns.neighbors(ids["a"])) == {ROOT, ids["x"], ids["y"]}

    def test_leaf(self, small):
        ns, ids = small
        assert not ns.children[ids["x"]]
        assert ns.children[ids["a"]]
        assert ns.n_leaves == 3

    def test_subtree(self, small):
        ns, ids = small
        assert set(ns.subtree(ids["a"])) == {ids["a"], ids["x"], ids["y"]}
        assert set(ns.subtree(ROOT)) == set(range(len(ns)))

    def test_level_sizes(self, small):
        ns, _ = small
        assert ns.level_sizes() == [1, 2, 3]


class TestDistance:
    def test_self_distance_zero(self, small):
        ns, ids = small
        for v in ns:
            assert ns.distance(v, v) == 0

    def test_parent_child_distance(self, small):
        ns, ids = small
        assert ns.distance(ids["a"], ids["x"]) == 1

    def test_sibling_distance(self, small):
        ns, ids = small
        assert ns.distance(ids["x"], ids["y"]) == 2

    def test_cross_subtree(self, small):
        ns, ids = small
        assert ns.distance(ids["x"], ids["z"]) == 4

    def test_lca(self, small):
        ns, ids = small
        assert ns.lca(ids["x"], ids["y"]) == ids["a"]
        assert ns.lca(ids["x"], ids["z"]) == ROOT
        assert ns.lca(ids["a"], ids["x"]) == ids["a"]

    def test_is_ancestor(self, small):
        """``a`` is an ancestor of ``b`` (or ``b`` itself) exactly when
        it is their lowest common ancestor."""
        ns, ids = small
        assert ns.lca(ROOT, ids["z"]) == ROOT
        assert ns.lca(ids["a"], ids["x"]) == ids["a"]
        assert ns.lca(ids["x"], ids["x"]) == ids["x"]
        assert ns.lca(ids["x"], ids["a"]) != ids["x"]
        assert ns.lca(ids["a"], ids["z"]) != ids["a"]


class TestRoutePath:
    """The base-protocol walk ``tests/test_routing.py`` compares the
    router against."""

    def test_paper_example_up_then_down(self, small):
        """Routing from x to z climbs to the LCA then descends."""
        ns, ids = small
        path = route_path(ns, ids["x"], ids["z"])
        assert path == [ids["x"], ids["a"], ROOT, ids["b"], ids["z"]]

    def test_path_to_self(self, small):
        ns, ids = small
        assert route_path(ns, ids["x"], ids["x"]) == [ids["x"]]

    def test_path_to_ancestor(self, small):
        ns, ids = small
        assert route_path(ns, ids["x"], ROOT) == [ids["x"], ids["a"], ROOT]

    def test_path_length_equals_distance(self, small):
        ns, ids = small
        for a in ns:
            for b in ns:
                assert len(route_path(ns, a, b)) == ns.distance(a, b) + 1


class TestValidation:
    def test_child_before_parent_rejected(self):
        with pytest.raises(ValueError):
            Namespace(parent=[0, 2, 1], label=["", "a", "b"],
                      children=[[2], [], [1]])

    def test_rootless_rejected(self):
        with pytest.raises(ValueError):
            Namespace(parent=[], label=[], children=[])


class TestStepToward:
    def test_descends_to_child_on_path(self, small):
        ns, ids = small
        assert ns.step_toward(ids["a"], ids["x"]) == ids["x"]
        assert ns.step_toward(ROOT, ids["z"]) == ids["b"]

    def test_climbs_to_parent_otherwise(self, small):
        ns, ids = small
        assert ns.step_toward(ids["x"], ids["y"]) == ids["a"]
        assert ns.step_toward(ids["z"], ids["x"]) == ids["b"]

    def test_rejects_self(self, small):
        ns, ids = small
        with pytest.raises(ValueError):
            ns.step_toward(ids["x"], ids["x"])

    def test_walk_terminates_at_dest(self, small):
        ns, ids = small
        v, hops = ids["x"], 0
        while v != ids["z"]:
            v = ns.step_toward(v, ids["z"])
            hops += 1
        assert hops == ns.distance(ids["x"], ids["z"])
