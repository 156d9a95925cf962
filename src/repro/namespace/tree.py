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

import os
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

    # ------------------------------------------------------------------
    # shared-memory arena export (subclass hooks)
    # ------------------------------------------------------------------

    def _arena_extra_state(self) -> Dict[str, Any]:
        """Non-arena state a subclass needs to survive export/attach.

        Must be small and picklable -- it rides in the
        :class:`ArenaHandle`, not in shared memory.
        """
        return {}

    def _arena_restore_extra(self, extra: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`_arena_extra_state`."""


class _LabelTable:
    """Lazy per-node label sequence over a packed label-id column.

    Balanced and Coda-like trees repeat a handful of distinct labels
    across millions of nodes; in shared memory each node stores a
    4-byte index into the (tiny, pickled) unique-label tuple instead of
    a Python string reference, so the attached namespace materialises
    no per-node string objects at all.
    """

    __slots__ = ("_uniques", "_ids")

    def __init__(self, uniques: Tuple[str, ...], ids: Sequence[int]) -> None:
        self._uniques = uniques
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, v: int) -> str:
        return self._uniques[self._ids[v]]

    def __iter__(self) -> Iterator[str]:
        uniques = self._uniques
        for i in self._ids:
            yield uniques[i]

    def __repr__(self) -> str:
        return f"_LabelTable(n={len(self._ids)}, uniques={len(self._uniques)})"


def _nbytes(a: Any) -> int:
    return len(a) * a.itemsize


class ArenaError(Exception):
    """A shared arena segment is missing, or too small for its handle."""


class ArenaHandle:
    """Picklable descriptor of a namespace's shared-memory arenas.

    The handle is what crosses the worker pipe: the shm segment name,
    the section lengths, the unique-label table, the namespace class,
    and any subclass extra state. :meth:`attach` maps the segment
    read-only and rebuilds a fully functional namespace whose arena
    slots are zero-copy ``memoryview`` casts into the shared block --
    O(1) time and O(1) per-worker memory regardless of namespace size.
    """

    __slots__ = (
        "shm_name", "cls", "n", "n_anc", "n_child", "n_owner",
        "uniques", "n_leaves", "max_depth", "extra",
    )

    def __init__(
        self,
        shm_name: str,
        cls: type,
        n: int,
        n_anc: int,
        n_child: int,
        n_owner: int,
        uniques: Tuple[str, ...],
        n_leaves: int,
        max_depth: int,
        extra: Dict[str, Any],
    ) -> None:
        self.shm_name = shm_name
        self.cls = cls
        self.n = n
        self.n_anc = n_anc
        self.n_child = n_child
        self.n_owner = n_owner
        self.uniques = uniques
        self.n_leaves = n_leaves
        self.max_depth = max_depth
        self.extra = extra

    def __reduce__(self) -> Tuple[Any, ...]:
        return (ArenaHandle, (
            self.shm_name, self.cls, self.n, self.n_anc, self.n_child,
            self.n_owner, self.uniques, self.n_leaves, self.max_depth,
            self.extra,
        ))

    def attach(self) -> "AttachedArenas":
        """Map the shared block and rebuild the namespace (zero-copy).

        The returned :class:`AttachedArenas` must stay alive as long as
        the namespace is in use -- its views pin the mapping.
        """
        from multiprocessing import resource_tracker, shared_memory

        # Pre-3.13 attaches register with the resource tracker, which
        # would unlink the segment when this worker exits even though
        # the parent still owns it (bpo-39959).  Suppress registration
        # during the attach (single-threaded worker init) rather than
        # unregistering afterwards: workers share the parent's tracker
        # process, and N unregisters of the same name make it log
        # KeyErrors.
        _orig_register = resource_tracker.register

        def _no_shm_register(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                _orig_register(name, rtype)

        resource_tracker.register = _no_shm_register  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=self.shm_name)
        except FileNotFoundError as exc:
            raise ArenaError(
                f"arena segment {self.shm_name!r} does not exist"
            ) from exc
        finally:
            resource_tracker.register = _orig_register  # type: ignore[assignment]
        n = self.n
        # a truncated or foreign block would otherwise surface as a
        # TypeError from a cast below, or an IndexError hops later
        needed = 16 * (n + 1) + 4 * (
            3 * n + self.n_anc + self.n_child + self.n_owner)
        if shm.size < needed:
            found = shm.size
            shm.close()
            raise ArenaError(
                f"arena segment {self.shm_name!r} holds {found} bytes; "
                f"its handle needs {needed}"
            )
        buf = memoryview(shm.buf)
        off = 0

        def take(typecode: str, count: int) -> memoryview:
            nonlocal off
            size = count * (8 if typecode == "q" else 4)
            # read-only: an accidental write would corrupt every worker
            view = buf[off:off + size].cast(typecode).toreadonly()
            off += size
            return view

        # q-sized offset arrays first (8-byte aligned at offset 0)
        anc_off = take("q", n + 1)
        child_off = take("q", n + 1)
        parent = take("i", n)
        depth = take("i", n)
        anc_arena = take("i", self.n_anc)
        child_arena = take("i", self.n_child)
        label_ids = take("i", n)
        owner = take("i", self.n_owner) if self.n_owner else None

        ns = self.cls.__new__(self.cls)
        ns.parent = parent
        ns.depth = depth
        ns.anc_arena = anc_arena
        ns.anc_off = anc_off
        ns.anc = _ArenaView(anc_arena, anc_off)
        ns.child_arena = child_arena
        ns.child_off = child_off
        ns.children = _ArenaView(child_arena, child_off)
        ns._label = _LabelTable(self.uniques, label_ids)
        ns._levels = None
        ns._preorder = None
        ns.n_leaves = self.n_leaves
        ns.max_depth = self.max_depth
        ns._arena_restore_extra(self.extra)
        return AttachedArenas(shm, ns, owner)


class AttachedArenas:
    """A worker-side attachment: keeps the shm mapping alive.

    Workers ``close()`` (never unlink) when done; the exporting parent
    owns the segment's lifetime via :class:`SharedArenas`.
    """

    __slots__ = ("shm", "ns", "owner")

    def __init__(self, shm: Any, ns: Namespace, owner: Optional[memoryview]) -> None:
        self.shm = shm
        self.ns = ns
        self.owner = owner

    def close(self) -> None:
        # the namespace's arena views pin the mapping; when callers
        # still hold them the unmap is deferred to process exit
        self.owner = None
        self.ns = None  # type: ignore[assignment]
        shm = self.shm
        if shm is None:
            return
        self.shm = None
        try:
            shm.close()
        except BufferError:
            # Views exported from the mapping keep it alive.  Disarm
            # the SharedMemory finalizer (it would retry close() at
            # interpreter shutdown and print "Exception ignored"
            # noise) by dropping its mmap reference and closing the fd
            # ourselves; the mmap itself is freed when the last arena
            # view dies.
            try:
                shm._mmap = None
                fd = shm._fd
                if fd >= 0:
                    shm._fd = -1
                    os.close(fd)
            except (AttributeError, OSError):  # pragma: no cover
                pass


class SharedArenas:
    """The parent-side owner of an exported arena block.

    Hands out the picklable :attr:`handle`; :meth:`close` both closes
    and unlinks the segment (the owner is the only unlinker).
    """

    __slots__ = ("shm", "handle")

    def __init__(self, shm: Any, handle: ArenaHandle) -> None:
        self.shm = shm
        self.handle = handle

    @property
    def nbytes(self) -> int:
        return self.shm.size

    def close(self) -> None:
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def export_arenas(
    ns: Namespace, owner: Optional[Sequence[int]] = None
) -> SharedArenas:
    """Copy a namespace's flat arenas into one shared-memory block.

    Layout (little-endian, q-arrays first so every section is
    naturally aligned)::

        anc_off  (n+1) x q | child_off (n+1) x q | parent n x i |
        depth n x i | anc_arena x i | child_arena x i |
        label_id n x i | [owner x i]

    ``owner`` optionally co-locates the node->server assignment so
    workers never materialise their own copy. Returns the owning
    :class:`SharedArenas`; ship ``shared.handle`` to workers.
    """
    from multiprocessing import shared_memory

    n = len(ns)
    idmap: Dict[str, int] = {}
    uniques: List[str] = []
    label_ids = array("i", bytes(4 * n))
    for v in range(n):
        lab = ns.label_of(v)
        i = idmap.get(lab)
        if i is None:
            i = idmap[lab] = len(uniques)
            uniques.append(lab)
        label_ids[v] = i

    owner_arr: Optional[array] = None
    if owner is not None:
        owner_arr = owner if isinstance(owner, array) and owner.typecode == "i" \
            else array("i", owner)

    sections: List[Any] = [
        ns.anc_off, ns.child_off, ns.parent, ns.depth,
        ns.anc_arena, ns.child_arena, label_ids,
    ]
    if owner_arr is not None:
        sections.append(owner_arr)
    total = sum(_nbytes(s) for s in sections)
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    off = 0
    for s in sections:
        nb = _nbytes(s)
        shm.buf[off:off + nb] = memoryview(s).cast("B")
        off += nb

    handle = ArenaHandle(
        shm.name,
        type(ns),
        n,
        len(ns.anc_arena),
        len(ns.child_arena),
        len(owner_arr) if owner_arr is not None else 0,
        tuple(uniques),
        ns.n_leaves,
        ns.max_depth,
        ns._arena_extra_state(),
    )
    return SharedArenas(shm, handle)
