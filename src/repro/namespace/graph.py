"""Graph-rooted namespaces (paper section 2.1 generality).

"TerraDir allows arbitrary graph-rooted topologies to be specified.
Here we assume the structure of the namespace is that of a tree."

We support rooted DAG topologies the way a hierarchical router can
exploit them while keeping the tree machinery's guarantees: the
namespace is a *spanning tree* (each node's primary parent defines
names, depth, and the distance metric that guarantees incremental
progress) plus a set of **cross links** -- additional graph edges.
Cross links extend every endpoint's routing context (its neighbor set),
so replicas carry them and routing gains extra shortcut candidates;
because the greedy step still minimises spanning-tree distance, all
correctness properties are preserved and cross links can only shorten
routes.

This matches how a graph-rooted TerraDir namespace behaves: alternative
name paths exist, one canonical path defines the hierarchy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.namespace.tree import Namespace


class GraphNamespace(Namespace):
    """A namespace tree augmented with cross links (rooted DAG).

    ``neighbors(v)`` returns the tree neighbors plus any cross-linked
    nodes; the distance metric and routing paths remain those of the
    spanning tree.
    """

    __slots__ = ("cross", "n_cross_links")

    def __init__(
        self,
        parent: Sequence[int],
        label: Sequence[str],
        children: Sequence[Sequence[int]],
        cross_links: Iterable[Tuple[int, int]] = (),
    ) -> None:
        super().__init__(parent, label, children)
        cross: Dict[int, Set[int]] = {}
        count = 0
        for a, b in cross_links:
            if not (0 <= a < len(parent) and 0 <= b < len(parent)):
                raise ValueError(f"cross link ({a}, {b}) out of range")
            if a == b:
                raise ValueError("self cross link")
            if b in self.neighbors_tree(a):
                continue  # already a tree edge
            if b in cross.get(a, ()):
                continue
            cross.setdefault(a, set()).add(b)
            cross.setdefault(b, set()).add(a)
            count += 1
        self.cross = {k: tuple(sorted(v)) for k, v in cross.items()}
        self.n_cross_links = count

    @classmethod
    def from_tree(
        cls, ns: Namespace, cross_links: Iterable[Tuple[int, int]]
    ) -> "GraphNamespace":
        """Augment an existing tree namespace with cross links."""
        return cls(
            ns.parent,
            [ns.label_of(v) for v in range(len(ns))],
            ns.children,
            cross_links,
        )

    def neighbors_tree(self, v: int) -> Tuple[int, ...]:
        """The spanning-tree neighbors only (parent + children)."""
        return super().neighbors(v)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Tree neighbors plus cross-linked nodes (the routing context)."""
        extra = self.cross.get(v)
        base = super().neighbors(v)
        if not extra:
            return base
        return base + extra

    def contexts(self, nodes: Iterable[int]) -> List[int]:
        """Each node's tree context with its cross links appended (the
        base method reads the tree arenas, which hold no cross links)."""
        out: List[int] = []
        for v in nodes:
            out.extend(self.neighbors(v))
        return out

    def graph_distance(self, a: int, b: int, max_depth: int = 64) -> int:
        """True shortest-path distance using all edges (BFS).

        Used by tests/analysis; the router itself still minimises
        spanning-tree distance (its progress guarantee), so
        ``graph_distance <= distance`` always holds.
        """
        if a == b:
            return 0
        frontier = [a]
        seen = {a}
        d = 0
        while frontier and d < max_depth:
            d += 1
            nxt: List[int] = []
            for u in frontier:
                for w in self.neighbors(u):
                    if w == b:
                        return d
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        raise ValueError(f"no path from {a} to {b} within {max_depth} hops")


def mesh_of_trees(levels: int, arity: int = 2, link_stride: int = 2,
                  link_depth: int = 2) -> GraphNamespace:
    """A balanced tree whose nodes at ``link_depth`` are cross-linked in
    a ring -- a simple graph-rooted topology for tests and examples."""
    from repro.namespace.generators import balanced_tree

    ns = balanced_tree(levels=levels, arity=arity)
    ring = ns.nodes_at_depth(min(link_depth, ns.max_depth))
    links = [
        (ring[i], ring[(i + link_stride) % len(ring)])
        for i in range(len(ring))
        if len(ring) > 2
    ]
    return GraphNamespace.from_tree(ns, links)
