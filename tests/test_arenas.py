"""Shared-memory namespace arenas (export_arenas / ArenaHandle.attach).

The attach path must rebuild a namespace that answers every read query
identically to the exporting one, with zero-copy read-only views into
one shared block -- this is what lets shard workers stop paying a
per-process copy of the tree.
"""

import os
import pickle
import random
import sys
from multiprocessing import shared_memory

import pytest

from repro.namespace.generators import balanced_tree, random_tree
from repro.namespace.graph import GraphNamespace, mesh_of_trees
from repro.namespace.tree import (
    ArenaError,
    ArenaHandle,
    AttachedArenas,
    SharedArenas,
    export_arenas,
)


def assert_equivalent(ns, got, samples=64, seed=3):
    assert len(got) == len(ns)
    assert got.n_leaves == ns.n_leaves
    assert got.max_depth == ns.max_depth
    assert list(got.parent) == list(ns.parent)
    assert list(got.depth) == list(ns.depth)
    assert list(got.preorder) == list(ns.preorder)
    rng = random.Random(seed)
    nodes = [rng.randrange(len(ns)) for _ in range(samples)]
    for v in nodes:
        assert tuple(got.children[v]) == tuple(ns.children[v])
        assert tuple(got.anc[v]) == tuple(ns.anc[v])
        assert got.label_of(v) == ns.label_of(v)
        assert got.name_of(v) == ns.name_of(v)
        assert got.neighbors(v) == ns.neighbors(v)
    for a, b in zip(nodes[::2], nodes[1::2]):
        assert got.distance(a, b) == ns.distance(a, b)
    for d in (0, 1, ns.max_depth):
        assert got.nodes_at_depth(d) == ns.nodes_at_depth(d)


class TestTreeRoundTrip:
    def test_balanced_tree_attach_is_equivalent(self):
        ns = balanced_tree(levels=7)
        shared = export_arenas(ns)
        attached = shared.handle.attach()
        try:
            assert_equivalent(ns, attached.ns)
            assert attached.owner is None
        finally:
            attached.close()
            shared.close()

    def test_random_tree_attach_is_equivalent(self):
        ns = random_tree(500, seed=41)
        shared = export_arenas(ns)
        attached = shared.handle.attach()
        try:
            assert_equivalent(ns, attached.ns)
        finally:
            attached.close()
            shared.close()

    def test_graph_namespace_keeps_cross_links(self):
        ns = mesh_of_trees(levels=6)
        shared = export_arenas(ns)
        attached = shared.handle.attach()
        try:
            got = attached.ns
            assert isinstance(got, GraphNamespace)
            assert got.cross == ns.cross
            assert got.n_cross_links == ns.n_cross_links
            assert_equivalent(ns, got)
            # a cross-linked node's routing context includes the link
            v = next(iter(ns.cross))
            assert got.neighbors(v) == ns.neighbors(v)
            assert got.neighbors_tree(v) == ns.neighbors_tree(v)
        finally:
            attached.close()
            shared.close()

    def test_owner_rides_in_the_block(self):
        ns = balanced_tree(levels=6)
        owner = [v % 16 for v in range(len(ns))]
        shared = export_arenas(ns, owner=owner)
        attached = shared.handle.attach()
        try:
            assert list(attached.owner) == owner
            assert len(attached.owner) == len(ns)
        finally:
            attached.close()
            shared.close()


class TestArenaSafety:
    def test_attached_views_are_read_only(self):
        ns = balanced_tree(levels=5)
        shared = export_arenas(ns, owner=[0] * len(ns))
        attached = shared.handle.attach()
        try:
            with pytest.raises(TypeError):
                attached.ns.parent[1] = 0
            with pytest.raises(TypeError):
                attached.owner[1] = 5
        finally:
            attached.close()
            shared.close()

    def test_handle_pickles(self):
        ns = balanced_tree(levels=5)
        shared = export_arenas(ns)
        try:
            handle = pickle.loads(pickle.dumps(shared.handle))
            assert isinstance(handle, ArenaHandle)
            attached = handle.attach()
            try:
                assert_equivalent(ns, attached.ns, samples=16)
            finally:
                attached.close()
        finally:
            shared.close()

    def test_close_is_idempotent(self):
        ns = balanced_tree(levels=4)
        shared = export_arenas(ns)
        attached = shared.handle.attach()
        assert isinstance(attached, AttachedArenas)
        attached.close()
        attached.close()  # second close is a no-op
        shared.close()
        shared.close()  # unlink already done; swallowed

    def test_unlink_frees_the_name(self):
        ns = balanced_tree(levels=4)
        shared = export_arenas(ns)
        assert isinstance(shared, SharedArenas)
        handle = shared.handle
        shared.close()
        with pytest.raises(ArenaError):
            handle.attach()

    def test_block_size_tracks_arenas_not_python_objects(self):
        ns = balanced_tree(levels=7)
        shared = export_arenas(ns)
        try:
            n = len(ns)
            # q-offsets + 4 int arrays of n plus the two flat arenas:
            # the block is linear in the arena payload, with no
            # per-node Python object overhead
            floor = 2 * 8 * (n + 1) + 3 * 4 * n
            assert shared.nbytes >= floor
            assert shared.nbytes < 64 * n + 4096
        finally:
            shared.close()


def _nothing_left_behind(name):
    """No ``/dev/shm`` entry and no mapping of the segment in this process."""
    assert not os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            assert name.lstrip("/") not in fh.read()


class TestAttachRefusesBadBlocks:
    """ROADMAP E(3): a block that cannot hold what its handle describes
    is refused at attach, by name and size, with nothing left mapped."""

    def _retarget(self, handle, shm_name):
        fields = list(handle.__reduce__()[1])
        fields[0] = shm_name
        return ArenaHandle(*fields)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="other platforms round a segment up to pages")
    def test_block_one_byte_short(self):
        shared = export_arenas(balanced_tree(levels=5), owner=[0] * 63)
        short = shared_memory.SharedMemory(create=True, size=shared.nbytes - 1)
        try:
            handle = self._retarget(shared.handle, short.name)
            with pytest.raises(ArenaError) as err:
                handle.attach()
            msg = str(err.value)
            assert repr(short.name) in msg
            assert f"holds {shared.nbytes - 1} bytes" in msg
            assert f"needs {shared.nbytes}" in msg
        finally:
            short.close()
            short.unlink()
            shared.close()
        _nothing_left_behind(short.name)
        _nothing_left_behind(shared.handle.shm_name)

    def test_block_of_a_smaller_namespace(self):
        big = export_arenas(balanced_tree(levels=6))
        small = export_arenas(balanced_tree(levels=4))
        try:
            handle = self._retarget(big.handle, small.handle.shm_name)
            with pytest.raises(ArenaError) as err:
                handle.attach()
            msg = str(err.value)
            assert repr(small.handle.shm_name) in msg
            assert f"holds {small.nbytes} bytes" in msg
            assert f"needs {big.nbytes}" in msg
            # the segment itself is intact: its own handle still attaches
            attached = small.handle.attach()
            assert len(attached.ns) == 31
            attached.close()
        finally:
            big.close()
            small.close()
        _nothing_left_behind(big.handle.shm_name)
        _nothing_left_behind(small.handle.shm_name)

    def test_missing_segment_is_named(self):
        shared = export_arenas(balanced_tree(levels=4))
        handle = shared.handle
        shared.close()
        with pytest.raises(ArenaError) as err:
            handle.attach()
        assert repr(handle.shm_name) in str(err.value)
        assert "does not exist" in str(err.value)
        assert isinstance(err.value.__cause__, FileNotFoundError)
        _nothing_left_behind(handle.shm_name)
