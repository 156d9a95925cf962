"""Array-backed (CSR/arena) representation of a TerraDir namespace tree.

The routing hot path computes thousands of namespace distances per
simulated second, and the million-node namespaces of the scaled
experiments must fit in laptop RAM, so the tree is stored as flat
``array`` arenas indexed by node id -- no per-node Python containers:

* ``parent[v]``      -- parent id (root's parent is itself), ``array('i')``;
* ``depth[v]``       -- distance from the root, ``array('i')``;
* ``anc_arena`` / ``anc_off``     -- every node's ancestor chain
  ``(root, ..., v)`` concatenated into one flat ``array('i')``; node
  ``v``'s chain is ``anc_arena[anc_off[v]:anc_off[v + 1]]``;
* ``child_arena`` / ``child_off`` -- the children lists in CSR form:
  node ``v``'s children are ``child_arena[child_off[v]:child_off[v+1]]``.

``anc`` and ``children`` remain as zero-copy *views* over the arenas
(``ns.anc[v]`` / ``ns.children[v]`` return ``array('i')`` slices), so
every pre-arena call site keeps working; hot-path consumers (the tree
metrics below, :class:`repro.core.nsindex.AncestorIndex`) index the
arenas directly.

Names are fully lazy: labels are interned at build time, ``name_of``
joins one ancestor chain on demand, and ``id_of`` resolves a path by
walking children per component -- nothing ever materialises all *n*
name strings, and nothing on the hot path touches strings.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.namespace.name import ROOT_NAME, join, split, validate_name

ROOT = 0


class _ArenaView:
    """Sequence-of-sequences view over a flat arena + offset array.

    ``view[v]`` is an ``array('i')`` slice -- cheap (one memcpy of at
    most ``max_depth + 1`` or ``fanout`` ints), supports ``len``,
    indexing, iteration, and comparison, exactly like the tuples it
    replaces.
    """

    __slots__ = ("_arena", "_off", "_n")

    def __init__(self, arena: array, off: array) -> None:
        self._arena = arena
        self._off = off
        self._n = len(off) - 1

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, v: int) -> array:
        if v < 0:
            v += self._n
        if not 0 <= v < self._n:
            raise IndexError(f"node id {v} out of range")
        return self._arena[self._off[v]:self._off[v + 1]]

    def __iter__(self) -> Iterator[array]:
        arena, off = self._arena, self._off
        for v in range(self._n):
            yield arena[off[v]:off[v + 1]]

    def __repr__(self) -> str:
        return f"_ArenaView(n={self._n}, ints={len(self._arena)})"


class NamespaceBuilder:
    """Incrementally build a :class:`Namespace`.

    Nodes must be added parent-before-child; the root exists implicitly.
    The builder is streaming: it holds two flat append-only columns
    (parent ids and interned labels) and **no per-node child lists** --
    the CSR child arena is produced by :meth:`build` in two passes
    (count children, then fill), so building an *n*-node namespace
    allocates O(n) ints, not O(n) Python lists.

    >>> b = NamespaceBuilder()
    >>> u = b.add_child(0, "university")
    >>> pub = b.add_child(u, "public")
    >>> ns = b.build()
    >>> ns.name_of(pub)
    '/university/public'
    """

    def __init__(self) -> None:
        self._parent = array("i", (ROOT,))
        self._label: List[str] = [""]
        # label object dedup: balanced trees repeat a handful of labels
        # across hundreds of thousands of nodes; one shared str each
        self._intern: Dict[str, str] = {"": ""}
        # (parent, label) -> node, built lazily on first add_path
        self._path_index: Optional[Dict[Tuple[int, str], int]] = None

    def __len__(self) -> int:
        return len(self._parent)

    def add_child(self, parent: int, label: str) -> int:
        """Add a child with component ``label`` under ``parent``; return its id."""
        if not 0 <= parent < len(self._parent):
            raise IndexError(f"unknown parent id {parent}")
        if not label or "/" in label:
            raise ValueError(f"invalid component label {label!r}")
        node = len(self._parent)
        label = self._intern.setdefault(label, label)
        self._parent.append(parent)
        self._label.append(label)
        if self._path_index is not None:
            self._path_index.setdefault((parent, label), node)
        return node

    def add_path(self, name: str) -> int:
        """Ensure every node on ``name``'s path exists; return the final id.

        Unlike :meth:`add_child` this deduplicates: adding the same path
        twice returns the same node id.
        """
        validate_name(name)
        index = self._path_index
        if index is None:
            index = {}
            for v in range(1, len(self._parent)):
                index.setdefault((self._parent[v], self._label[v]), v)
            self._path_index = index
        node = ROOT
        for comp in split(name):
            child = index.get((node, comp))
            node = child if child is not None else self.add_child(node, comp)
        return node

    def build(self) -> "Namespace":
        return Namespace(self._parent, self._label)


class Namespace:
    """An immutable rooted tree of hierarchical names.

    Attributes:
        parent: flat parent-id array (``parent[0] == 0``).
        depth: flat depth array (``depth[0] == 0``).
        children: per-node child-id view over the CSR arena.
        anc: per-node ancestor-chain view (root to the node, inclusive).
        anc_arena / anc_off: the flat ancestor arena and its offsets.
        child_arena / child_off: the flat CSR child arena and offsets.
        preorder: depth-first rank per node (lazy; subtrees are ranges).
    """

    __slots__ = (
        "parent",
        "depth",
        "children",
        "anc",
        "anc_arena",
        "anc_off",
        "child_arena",
        "child_off",
        "_label",
        "_levels",
        "_preorder",
        "n_leaves",
        "max_depth",
    )

    def __init__(
        self,
        parent: Sequence[int],
        label: Sequence[str],
        children: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        n = len(parent)
        if n == 0 or parent[ROOT] != ROOT:
            raise ValueError("namespace must contain a root whose parent is itself")
        par = parent if isinstance(parent, array) and parent.typecode == "i" \
            else array("i", parent)
        self.parent: array = par
        self._label: Tuple[str, ...] = tuple(label)

        # pass 1: depths, ancestor-chain offsets (chain v has
        # depth[v] + 1 entries; offsets are the running prefix sum) and
        # child counts, which all index by (v, parent)
        depth = array("i", bytes(4 * n))
        anc_off = array("q", bytes(8 * (n + 1)))
        child_off = array("q", bytes(8 * (n + 1)))
        total = 1  # the root's chain (ROOT,)
        # parent-before-child ordering is guaranteed by NamespaceBuilder
        for v in range(1, n):
            p = par[v]
            if p >= v:
                raise ValueError("nodes must be ordered parent-before-child")
            d = depth[p] + 1
            depth[v] = d
            anc_off[v] = total
            total += d + 1
            child_off[p + 1] += 1
        anc_off[n] = total
        self.depth: array = depth
        self.max_depth: int = max(depth)

        # pass 2: fill the ancestor arena -- chain(v) = chain(parent) +
        # (v,), a single slice copy (memmove) per node -- and the CSR
        # child arena, derived from `parent`: each node takes the next
        # free slot of its parent, so children appear in increasing id
        # order, exactly as the old list-of-lists builder appended them
        arena = array("i", bytes(4 * total))
        arena[0] = ROOT
        n_leaves = child_off.count(0) - 1  # child_off[0] is not a count
        # summed in place: a C-speed accumulate() into a second array
        # leaves a hole in the heap that a whole run's peak RSS shows
        for v in range(n):
            child_off[v + 1] += child_off[v]
        child_arena = array("i", bytes(4 * (n - 1)))
        cursor = child_off[:n]
        for v in range(1, n):
            p = par[v]
            o = anc_off[v]
            dv = depth[v]  # parent's chain length
            po = anc_off[p]
            arena[o:o + dv] = arena[po:po + dv]
            arena[o + dv] = v
            child_arena[cursor[p]] = v
            cursor[p] += 1
        self.anc_arena: array = arena
        self.anc_off: array = anc_off
        self.anc = _ArenaView(arena, anc_off)
        if children is not None:
            # a caller's own sibling order replaces the derived one
            if len(children) != n:
                raise ValueError("children length must equal node count")
            flat: List[int] = []
            n_leaves = 0
            for v, kids in enumerate(children):
                flat.extend(kids)
                if not len(kids):
                    n_leaves += 1
                child_off[v + 1] = len(flat)
            child_arena = array("i", flat)
        self.child_arena: array = child_arena
        self.child_off: array = child_off
        self.children = _ArenaView(child_arena, child_off)
        self.n_leaves: int = n_leaves
        self._levels: Optional[List[array]] = None
        self._preorder: Optional[array] = None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.parent)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.parent)))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Parent plus children of ``v`` (the node's routing context)."""
        kids = self.child_arena[self.child_off[v]:self.child_off[v + 1]]
        if v == ROOT:
            return tuple(kids)
        return (self.parent[v], *kids)

    def contexts(self, nodes: Iterable[int]) -> List[int]:
        """The routing contexts of ``nodes``, concatenated: for each
        node its :meth:`neighbors`, parent first then children, read
        off the arenas with no tuple built per node."""
        parent, arena, off = self.parent, self.child_arena, self.child_off
        out: List[int] = []
        for v in nodes:
            if v != ROOT:
                out.append(parent[v])
            o, e = off[v], off[v + 1]
            if o != e:
                out.extend(arena[o:e])
        return out

    def is_leaf(self, v: int) -> bool:
        return self.child_off[v] == self.child_off[v + 1]

    def _level_lists(self) -> List[array]:
        """Per-depth node-id arrays, computed once on first use."""
        if self._levels is None:
            levels = [array("i") for _ in range(self.max_depth + 1)]
            for v, d in enumerate(self.depth):
                levels[d].append(v)
            self._levels = levels
        return self._levels

    @property
    def preorder(self) -> array:
        """Depth-first rank of every node, computed once on first use.

        ``preorder[v]`` is ``v``'s position in a depth-first traversal
        from the root, so the subtree of ``v`` is exactly the contiguous
        rank range ``[preorder[v], preorder[v] + |subtree(v)|)`` -- what
        lets :class:`repro.core.nsindex.AncestorIndex` find the members
        under an ancestor by bisecting one sorted rank array.
        """
        if self._preorder is None:
            par = self.parent
            n = len(par)
            # ids are parent-before-child, so one backward pass sums
            # subtree sizes and one forward pass deals each child the
            # next free rank range of its parent
            size = array("i", (1,)) * n
            for v in range(n - 1, 0, -1):
                size[par[v]] += size[v]
            rank = array("i", bytes(4 * n))
            free = array("i", (1,)) * n  # next unassigned rank under v
            for v in range(1, n):
                p = par[v]
                r = free[p]
                rank[v] = r
                free[p] = r + size[v]
                free[v] = r + 1
            self._preorder = rank
        return self._preorder

    def nodes_at_depth(self, d: int) -> List[int]:
        """All node ids at depth ``d`` (ascending; cached as ``array('i')``)."""
        levels = self._level_lists()
        return list(levels[d]) if 0 <= d < len(levels) else []

    # ------------------------------------------------------------------
    # names (lazy: nothing materialises all n strings)
    # ------------------------------------------------------------------

    def name_of(self, v: int) -> str:
        """The fully-qualified name of node ``v`` (built on demand)."""
        if v == ROOT:
            return ROOT_NAME
        label = self._label
        o = self.anc_off[v]
        chain = self.anc_arena[o + 1:self.anc_off[v + 1]]
        return join(*(label[u] for u in chain))

    def id_of(self, name: str) -> int:
        """The node id of a fully-qualified name.

        Resolved by walking children per path component -- O(depth x
        fanout), no name table.

        Raises:
            KeyError: if the name does not exist in this namespace.
        """
        validate_name(name)
        label = self._label
        arena, off = self.child_arena, self.child_off
        node = ROOT
        for comp in split(name):
            for i in range(off[node], off[node + 1]):
                child = arena[i]
                if label[child] == comp:
                    node = child
                    break
            else:
                raise KeyError(name)
        return node

    def label_of(self, v: int) -> str:
        """The last path component of node ``v`` (empty for the root)."""
        return self._label[v]

    # ------------------------------------------------------------------
    # tree metrics (the routing hot path)
    # ------------------------------------------------------------------

    def lca_depth(self, a: int, b: int) -> int:
        """Depth of the lowest common ancestor of ``a`` and ``b``."""
        arena = self.anc_arena
        off = self.anc_off
        oa, ob = off[a], off[b]
        # common prefix scan; element 0 (the root) always matches
        n = off[a + 1] - oa
        nb = off[b + 1] - ob
        if nb < n:
            n = nb
        d = 0
        while d < n and arena[oa + d] == arena[ob + d]:
            d += 1
        return d - 1

    def lca(self, a: int, b: int) -> int:
        """The lowest common ancestor of ``a`` and ``b``."""
        return self.anc_arena[self.anc_off[a] + self.lca_depth(a, b)]

    def distance(self, a: int, b: int) -> int:
        """Namespace (tree) distance between ``a`` and ``b``."""
        return self.depth[a] + self.depth[b] - 2 * self.lca_depth(a, b)

    def is_ancestor(self, a: int, b: int) -> bool:
        """True if ``a`` is ``b`` or a proper ancestor of ``b``."""
        da = self.depth[a]
        return da <= self.depth[b] and \
            self.anc_arena[self.anc_off[b] + da] == a

    def step_toward(self, a: int, b: int) -> int:
        """The neighbor of ``a`` one namespace hop closer to ``b``.

        The child on the path down to ``b`` when ``a`` is an ancestor
        of ``b``, otherwise ``a``'s parent (the up-then-down geodesic
        of :meth:`route_path`, taken one step at a time).

        Raises:
            ValueError: if ``a == b`` (there is no step to take).
        """
        if a == b:
            raise ValueError(f"no step from node {a} toward itself")
        da = self.depth[a]
        ob = self.anc_off[b]
        if da <= self.depth[b] and self.anc_arena[ob + da] == a:
            return self.anc_arena[ob + da + 1]
        return self.parent[a]

    def route_path(self, src: int, dst: int) -> List[int]:
        """The canonical up-then-down node path from ``src`` to ``dst``.

        This is the route the *base* protocol follows when no caches,
        replicas, or digests provide a shortcut (paper section 2.2.1).
        """
        arena, off = self.anc_arena, self.anc_off
        ld = self.lca_depth(src, dst)
        os_, od = off[src], off[dst]
        up = [arena[os_ + d] for d in range(self.depth[src], ld - 1, -1)]
        down = [arena[od + d] for d in range(ld + 1, self.depth[dst] + 1)]
        return up + down

    def subtree(self, v: int) -> List[int]:
        """All ids in the subtree rooted at ``v`` (preorder)."""
        arena, off = self.child_arena, self.child_off
        out: List[int] = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            o, e = off[u], off[u + 1]
            if e > o:
                stack.extend(reversed(arena[o:e]))
        return out

    def level_sizes(self) -> List[int]:
        """Node count per depth level, index = depth (computed once)."""
        return [len(level) for level in self._level_lists()]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Namespace":
        """Build a namespace containing every name in ``names`` (plus ancestors)."""
        b = NamespaceBuilder()
        for nm in names:
            b.add_path(nm)
        return b.build()
