"""Unit tests for namespace generators."""

import hashlib
import random

import pytest

from repro.namespace.generators import (
    _FrontierSampler,
    assign_nodes_to_servers,
    balanced_tree,
    coda_like_tree,
    random_tree,
    university_tree,
)
from tests.test_routing import route_path


def _parent_digest(ns) -> str:
    return hashlib.sha256(",".join(map(str, ns.parent)).encode()).hexdigest()


class TestBalancedTree:
    def test_binary_sizes(self):
        ns = balanced_tree(levels=4, arity=2)
        assert len(ns) == 2**5 - 1
        assert ns.max_depth == 4
        assert ns.level_sizes() == [1, 2, 4, 8, 16]

    def test_ternary(self):
        ns = balanced_tree(levels=2, arity=3)
        assert len(ns) == 1 + 3 + 9

    def test_zero_levels(self):
        ns = balanced_tree(levels=0)
        assert len(ns) == 1

    def test_paper_ns_shape(self):
        """N_S: levels 0..14 of a binary tree = 32767 nodes (Fig. 7)."""
        ns = balanced_tree(levels=14)
        assert len(ns) == 32767
        assert ns.max_depth == 14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            balanced_tree(-1)
        with pytest.raises(ValueError):
            balanced_tree(3, arity=0)


class TestRandomTree:
    def test_size_and_determinism(self):
        a = random_tree(200, seed=3)
        b = random_tree(200, seed=3)
        assert len(a) == len(b) == 200
        assert a.parent == b.parent

    def test_different_seeds_differ(self):
        a = random_tree(200, seed=3)
        b = random_tree(200, seed=4)
        assert a.parent != b.parent

    def test_preferential_attachment_skews_fanout(self):
        uni = random_tree(2000, seed=1, attach_power=0.0)
        pref = random_tree(2000, seed=1, attach_power=2.0)
        max_uni = max(len(c) for c in uni.children)
        max_pref = max(len(c) for c in pref.children)
        assert max_pref > max_uni

    def test_preferential_fingerprints_pinned(self):
        """Incremental weight maintenance reproduces the original
        full-rebuild draws exactly (digests recorded pre-refactor)."""
        assert _parent_digest(random_tree(1000, seed=11, attach_power=1.2)) == (
            "89ac52826b6f4e28947c3c82175bcfca2052c5cf4084f34b04c919cda37b6387"
        )
        assert _parent_digest(random_tree(600, seed=2, attach_power=0.7)) == (
            "cbb7a2470a1c6dc649e37d4de19185b0c04d9c643454a5bed2160ccae3623001"
        )


class TestCodaLikeTree:
    def test_exact_size(self):
        ns = coda_like_tree(n_nodes=5000, seed=7)
        assert len(ns) == 5000

    def test_deterministic(self):
        a = coda_like_tree(n_nodes=3000, seed=7)
        b = coda_like_tree(n_nodes=3000, seed=7)
        assert a.parent == b.parent

    def test_file_system_shape(self):
        """Mostly leaves, skewed fan-out, depth profile unlike a
        balanced binary tree (which puts ~half its nodes at max depth)."""
        ns = coda_like_tree(n_nodes=20000, seed=7)
        leaf_frac = ns.n_leaves / len(ns)
        assert leaf_frac > 0.6
        sizes = ns.level_sizes()
        # deepest level should NOT hold the majority of nodes
        assert sizes[-1] < len(ns) / 2
        fanouts = [len(c) for c in ns.children if c]
        assert max(fanouts) > 3 * (sum(fanouts) / len(fanouts))

    def test_fingerprint_pinned(self):
        """The O(log n) frontier sampler reproduces the original
        ``list.pop(randrange)`` selection sequence (pre-refactor digest)."""
        assert _parent_digest(coda_like_tree(n_nodes=8000, seed=42)) == (
            "9d1235db1d30e834cd70a0d425ffd369d59c683f591553df6194312ade2d489e"
        )


class TestFrontierSampler:
    def test_matches_list_semantics(self):
        """pop(i)/append behave exactly like a plain list across a long
        random interleaving (including compaction thresholds)."""
        rng = random.Random(123)
        sampler = _FrontierSampler()
        model = []
        serial = 0
        for _ in range(20000):
            if model and rng.random() < 0.55:
                idx = rng.randrange(len(model))
                assert sampler.pop(idx) == model.pop(idx)
            else:
                item = (serial, serial % 7)
                serial += 1
                sampler.append(item)
                model.append(item)
            assert len(sampler) == len(model)
        while model:
            assert sampler.pop(0) == model.pop(0)

    def test_pop_out_of_range(self):
        s = _FrontierSampler()
        with pytest.raises(IndexError):
            s.pop(0)
        s.append((1, 1))
        with pytest.raises(IndexError):
            s.pop(1)


class TestUniversityTree:
    def test_fig1_names_exist(self):
        ns = university_tree()
        for name in (
            "/university/private/people",
            "/university/public/people/students/Steve",
            "/university/private/people/staff/Mary",
        ):
            assert ns.id_of(name) >= 0

    def test_fig1_route(self):
        """The base route for /university/private from the owner of
        /university/public/people/students climbs to /university then
        descends (paper Fig. 1, without cache/replica shortcuts)."""
        ns = university_tree()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        path = [ns.name_of(v) for v in route_path(ns, src, dst)]
        assert path == [
            "/university/public/people/students",
            "/university/public/people",
            "/university/public",
            "/university",
            "/university/private",
        ]


class TestAssignment:
    def test_balanced_partition(self):
        ns = balanced_tree(levels=6)  # 127 nodes
        owner = assign_nodes_to_servers(ns, 10, seed=5)
        counts = [owner.count(s) for s in range(10)]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == len(ns)

    def test_every_server_owns_a_node(self):
        ns = balanced_tree(levels=5)  # 63 nodes
        owner = assign_nodes_to_servers(ns, 63, seed=5)
        assert set(owner) == set(range(63))

    def test_deterministic(self):
        ns = balanced_tree(levels=5)
        assert assign_nodes_to_servers(ns, 7, seed=1) == assign_nodes_to_servers(
            ns, 7, seed=1
        )

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            assign_nodes_to_servers(balanced_tree(2), 0)
