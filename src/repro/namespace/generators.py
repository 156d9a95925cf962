"""Namespace generators for the paper's two evaluation namespaces.

* :func:`balanced_tree` -- the synthetic N_S namespace: a perfectly
  balanced k-ary tree (the paper uses a binary tree with levels 0..14,
  i.e. 32,767 nodes).
* :func:`coda_like_tree` -- stands in for the paper's N_C namespace, the
  file tree of the Coda server *barber* (January 1993 trace).  We do not
  have that trace; this generator produces a deterministic synthetic
  file-system-shaped tree instead (see DESIGN.md, substitutions).
* :func:`random_tree` -- uniform random recursive tree, useful in tests.
* :func:`university_tree` -- the 11-node example of the paper's Fig. 1.
"""

from __future__ import annotations

import random
from array import array
from typing import List, Optional, Tuple

from repro.namespace.tree import Namespace, NamespaceBuilder


def balanced_tree(levels: int, arity: int = 2) -> Namespace:
    """A perfectly balanced ``arity``-ary tree with depths ``0..levels``.

    ``balanced_tree(14)`` reproduces the paper's N_S namespace:
    ``2**15 - 1 == 32767`` nodes.

    Args:
        levels: depth of the deepest level (the root is level 0).
        arity: children per internal node.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    n = sum(arity ** d for d in range(levels + 1))
    # breadth-first ids: node v's parent is (v - 1) // arity and its
    # label n{(v - 1) % arity}, so each child slot is one strided copy
    # of the internal ids and nothing is validated node by node
    internal = array("i", range((n - 1) // arity))
    parent = array("i", (0,)) * n  # exact-size; from bytes() over-allocates
    for i in range(arity):
        parent[1 + i::arity] = internal
    labels = tuple(f"n{i}" for i in range(arity))
    return Namespace(parent, ("",) + labels * len(internal))


def path_tree(length: int) -> Namespace:
    """A degenerate single-path tree of the given depth (worst-case shape)."""
    b = NamespaceBuilder()
    node = 0
    for i in range(length):
        node = b.add_child(node, f"p{i}")
    return b.build()


def random_tree(n_nodes: int, seed: int = 0, attach_power: float = 0.0) -> Namespace:
    """A random recursive tree with ``n_nodes`` nodes.

    Each new node attaches to an existing node chosen uniformly at
    random (``attach_power == 0``) or with probability proportional to
    ``(1 + degree)**attach_power`` (preferential attachment, producing
    heavier fan-out skew).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    rng = random.Random(seed)
    b = NamespaceBuilder()
    degrees = [0]
    # attachment weights maintained incrementally: only the chosen
    # parent's entry changes per step, and ``(1 + d) ** p`` is a pure
    # function of the degree, so the values (and hence every
    # ``rng.choices`` draw) are bit-identical to a full rebuild
    weights = [1.0]
    for v in range(1, n_nodes):
        if attach_power <= 0.0:
            parent = rng.randrange(v)
        else:
            parent = rng.choices(range(v), weights=weights, k=1)[0]
        b.add_child(parent, f"n{v}")
        degrees[parent] += 1
        degrees.append(0)
        weights[parent] = (1.0 + degrees[parent]) ** attach_power
        weights.append(1.0)
    return b.build()


class _FrontierSampler:
    """A frontier supporting ``pop(i)`` at random indices in O(log n).

    Reproduces plain-``list`` semantics exactly -- ``pop(i)`` returns
    the *i*-th live entry in insertion order and preserves the order of
    the rest, ``append`` adds at the end -- so swapping it in changes
    no ``rng``-draw-to-entry correspondence.  Internally entries are
    tombstoned in an append-only slot list and a Fenwick tree counts
    live slots, replacing the O(n) ``list.pop(i)`` shift that made
    million-node ``coda_like_tree`` builds quadratic.  The slot list is
    compacted in chunks once tombstones outnumber live entries.
    """

    __slots__ = ("_slots", "_tree", "_alive")

    def __init__(self) -> None:
        self._slots: List[Optional[Tuple[int, int]]] = []
        self._tree: List[int] = [0]  # 1-based Fenwick over slot liveness
        self._alive = 0

    def __len__(self) -> int:
        return self._alive

    def _prefix(self, i: int) -> int:
        s = 0
        while i > 0:
            s += self._tree[i]
            i -= i & -i
        return s

    def append(self, item: Tuple[int, int]) -> None:
        self._slots.append(item)
        i = len(self._slots)
        # new Fenwick cell covers slots (i - lowbit(i), i]
        lsb = i & -i
        self._tree.append(self._prefix(i - 1) - self._prefix(i - lsb) + 1)
        self._alive += 1

    def pop(self, idx: int) -> Tuple[int, int]:
        if not 0 <= idx < self._alive:
            raise IndexError("pop index out of range")
        # binary lifting: largest pos with prefix(pos) <= idx, answer pos+1
        size = len(self._slots)
        pos, rem = 0, idx
        bit = 1 << (size.bit_length() - 1) if size else 0
        while bit:
            nxt = pos + bit
            if nxt <= size and self._tree[nxt] <= rem:
                pos = nxt
                rem -= self._tree[nxt]
            bit >>= 1
        slot = pos  # 0-based index of the (idx+1)-th live slot
        item = self._slots[slot]
        assert item is not None
        self._slots[slot] = None
        self._alive -= 1
        i = slot + 1
        while i <= size:
            self._tree[i] -= 1
            i += i & -i
        if size >= 1024 and self._alive * 2 < size:
            self._compact()
        return item

    def _compact(self) -> None:
        live = [s for s in self._slots if s is not None]
        self._slots = live
        self._tree = [0] * (len(live) + 1)
        for i in range(1, len(live) + 1):
            self._tree[i] = i & -i  # every slot alive: cell = span size
        self._alive = len(live)


def coda_like_tree(
    n_nodes: int = 73752,
    seed: int = 1993,
    mean_fanout: float = 9.0,
    max_depth: int = 16,
    dir_fraction: float = 0.22,
) -> Namespace:
    """A synthetic file-system-shaped namespace (stand-in for Coda N_C).

    The generator grows directories breadth-first.  Each directory gets
    a geometrically distributed number of entries (mean ``mean_fanout``)
    of which a fraction ``dir_fraction`` are subdirectories, producing
    the deep, fan-out-skewed shape typical of file servers: most nodes
    are leaves (files), internal nodes have highly variable degree, and
    the depth profile is unimodal around depth 6-9 rather than placing
    half the nodes at the deepest level like a balanced binary tree.

    That shape difference is exactly what the paper's N_S/N_C contrast
    exercises (caching behaves differently on the two namespaces in
    Fig. 5; the per-level replica profile differs).

    Args:
        n_nodes: total node count target (exact in the returned tree).
        seed: RNG seed; the tree is deterministic given the arguments.
        mean_fanout: mean entries per directory.
        max_depth: directories below this depth produce only files.
        dir_fraction: fraction of directory entries that are directories.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    rng = random.Random(seed)
    b = NamespaceBuilder()
    # frontier of (node, depth) directories still accepting children
    frontier = _FrontierSampler()
    frontier.append((0, 0))
    count = 1
    serial = 0
    while count < n_nodes:
        if not frontier:
            # namespace closed early: reopen a random existing node
            frontier.append((rng.randrange(count), max_depth // 2))
        idx = rng.randrange(len(frontier))
        node, depth = frontier.pop(idx)
        # geometric fan-out with mean `mean_fanout`
        p = 1.0 / mean_fanout
        fanout = 1
        while rng.random() > p and fanout < 4 * mean_fanout:
            fanout += 1
        for _ in range(fanout):
            if count >= n_nodes:
                break
            serial += 1
            is_dir = depth < max_depth and rng.random() < dir_fraction
            label = (f"d{serial}" if is_dir else f"f{serial}")
            child = b.add_child(node, label)
            count += 1
            if is_dir:
                frontier.append((child, depth + 1))
    return b.build()


def university_tree() -> Namespace:
    """The 11-node example namespace of the paper's Fig. 1/Fig. 2.

    ::

        /university
          /university/public
            /university/public/people
              .../faculty   (John, Steve under students in Fig.2)
              .../students  (John, Steve)
          /university/private
            /university/private/people
              .../staff   (Ann, Mary)
              .../faculty (Lisa)
    """
    b = NamespaceBuilder()
    for name in (
        "/university",
        "/university/public",
        "/university/public/people",
        "/university/public/people/faculty",
        "/university/public/people/students",
        "/university/public/people/students/John",
        "/university/public/people/students/Steve",
        "/university/private",
        "/university/private/people",
        "/university/private/people/staff",
        "/university/private/people/staff/Ann",
        "/university/private/people/staff/Mary",
        "/university/private/people/faculty",
        "/university/private/people/faculty/Lisa",
    ):
        b.add_path(name)
    return b.build()


def assign_nodes_to_servers(
    ns: Namespace, n_servers: int, seed: int = 0
) -> List[int]:
    """Uniform-random node-to-server mapping (paper section 4.1).

    Returns ``owner[node_id] -> server_id``.  Every server owns at least
    one node when ``n_servers <= len(ns)`` (assignment is a random
    balanced partition: node counts per server differ by at most one).
    """
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    rng = random.Random(seed)
    ids = list(range(len(ns)))
    rng.shuffle(ids)
    owner = [0] * len(ns)
    for i, v in enumerate(ids):
        owner[v] = i % n_servers
    return owner
