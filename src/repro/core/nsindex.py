"""Namespace ancestor index: O(depth) closest-member queries.

The per-hop routing decision asks of a peer's hosted nodes: *which
member is closest to the destination, breaking ties by iteration
order?*  A linear scan answers it in O(|members| * depth) per hop,
which caps large-namespace runs: a peer hosts on the order of a
hundred nodes, and the hosted list changes only when a replica is
installed or evicted.  (The LRU cache asks the same question of 16-26
entries it rewrites several times per message, so it keeps no index
and is scanned instead: :func:`repro.core.routing.scan_cache`.)

For a member ``v`` and destination ``t``, the namespace distance is

    d(v, t) = depth(v) + depth(t) - 2 * lca_depth(v, t)

and ``lca(v, t)`` is always on ``t``'s (precomputed) ancestor chain.
Call the members under an ancestor ``a`` its *bucket*: walking ``t``'s
chain deepest-first, the bucket at ancestor ``a`` (depth ``da``)
contains exactly the members with ``lca_depth(v, t) >= da``, and its
best contribution is its minimum-depth member.  So the closest member
is found from one bucket minimum per level of ``t``'s chain.

**Layout.**  :class:`AncestorIndex` keeps the minima in flat arrays, no
container per ancestor.  Members are held sorted by depth-first rank
(:attr:`Namespace.preorder <repro.namespace.tree.Namespace.preorder>`),
under which every subtree -- every bucket -- is one contiguous run of
members, and each member owns one *row* of ``max_depth + 1`` cells:
cell ``k`` names the least member, by ``(depth, seq)``, of the bucket
at the member's depth-``k`` ancestor.  Every member of a bucket carries
the bucket's minimum, so any one of them can answer for it.

**Rank-neighbour lemma.**  Ranked between two members, ``t`` shares
its deepest ancestor-with-a-member with one of those two: the members
under any ancestor of ``t`` form a run of ranks that contains or abuts
``t``'s own rank, so a non-empty bucket always holds the member just
before or just after it.  :meth:`closest` therefore bisects the rank
array once, bisects the common chain prefix of ``t`` and each
neighbour, and walks the better neighbour's row from that depth up;
every deeper bucket on ``t``'s chain is empty.

**Determinism contract.**  A scan breaks ties by "first member in
iteration order at a strictly smaller distance" -- hosted-list
position for the replica store.  The winner is therefore the member
minimising the pair ``(distance, position)`` lexicographically.  The
index reproduces this exactly by stamping every member with a
monotonically increasing *sequence number* on :meth:`add` and keeping
``(depth, seq)`` minima per bucket.  Why those minima suffice:

* within one bucket, only minimum-depth members can attain the
  bucket's best distance (deeper members are strictly farther *at this
  lca level*), and among those the smallest seq wins;
* across levels, a member appears in every bucket above its true LCA
  with an *overestimated* distance there, but the overestimate exceeds
  its true distance by at least 2, and the deepest-first walk has
  already absorbed the true value into the running best -- so
  overestimates can neither win nor tie;
* pruning is exact: a bucket at depth ``da`` can only contain members
  at distance >= ``depth(t) - da``, so levels with
  ``depth(t) - da > best`` can neither improve nor tie and the walk
  stops at ``da = depth(t) - best``.

**Writes.**  :meth:`add` inserts the member into the rank-sorted
columns and :meth:`remove` deletes it; both only mark the rows stale.
The next read recomputes every row in one O(members * depth) sweep,
so a burst of installs and evictions pays for one, and :meth:`extend`
is that sweep over a whole batch.  Writes are rare beside reads (one
per replica installed or evicted, against one read per hop).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator, Tuple

if TYPE_CHECKING:
    from repro.namespace.tree import Namespace

#: "no bound" initial distance for :meth:`AncestorIndex.closest`.
NO_BOUND = 1 << 30


def _shared_depth(arena: array, oa: int, ob: int, lo: int, hi: int) -> int:
    """Deepest level in ``lo..hi`` at which two ancestor chains agree.

    The chains start at arena offsets ``oa`` and ``ob``, both reach
    level ``hi``, and agree at ``lo``.  Chains that part never rejoin,
    so agreement is a prefix and bisection finds its end.
    """
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if arena[oa + mid] == arena[ob + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


class AncestorIndex:
    """Per-member rows of bucket minima over a rank-sorted member set.

    Mirrors an ordered member collection (the hosted list):
    :meth:`add` and :meth:`extend` append at the back, :meth:`remove`
    deletes.  :meth:`closest` answers closest-member queries in
    O(log members + depth(dest)).
    """

    __slots__ = (
        "_arena", "_off", "_depth", "_pre", "_width",
        "_ranks", "_nodes", "_seqs", "_rows", "_seq", "_stale",
    )

    def __init__(self, ns: "Namespace", members: Iterable[int] = ()) -> None:
        # ancestor chains are read straight out of the namespace's flat
        # arena (chain v = _arena[_off[v]:_off[v + 1]]): no per-chain
        # slice objects on the per-hop path
        self._arena = ns.anc_arena
        self._off = ns.anc_off
        self._depth = ns.depth
        self._pre = ns.preorder
        self._width: int = ns.max_depth + 1
        # parallel columns, one entry per member, ascending by rank
        self._ranks = array("i")
        self._nodes = array("i")
        self._seqs = array("i")
        # member i's row is _rows[i * _width:(i + 1) * _width]; cells
        # past the member's own depth are never read
        self._rows = array("i")
        self._seq = 0
        # set by add() and remove(): rows are out of date until the
        # next read sweeps them
        self._stale = False
        self.extend(members)

    # ------------------------------------------------------------------
    # membership mirror
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return self._position(node) >= 0

    def nodes(self) -> Iterator[int]:
        """Live members, in no particular order."""
        return iter(self._nodes)

    def _position(self, node: int) -> int:
        """``node``'s index in the member columns, or -1 if absent."""
        ranks = self._ranks
        r = self._pre[node]
        i = bisect_left(ranks, r)
        if i < len(ranks) and ranks[i] == r:
            return i
        return -1

    def _neighbour(self, node: int, i: int) -> Tuple[int, int]:
        """Position of the member sharing the deepest ancestor with
        ``node``, and that ancestor's depth.

        ``i`` is where ``node``'s rank bisects the members, so by the
        rank-neighbour lemma the member is at ``i - 1`` or at ``i``;
        the index must not be empty.
        """
        arena = self._arena
        off = self._off
        nodes = self._nodes
        o_node = off[node]
        d_node = off[node + 1] - o_node - 1
        pos = i if i < len(nodes) else i - 1
        o = off[nodes[pos]]
        hi = off[nodes[pos] + 1] - o - 1
        lca = _shared_depth(arena, o, o_node, 0,
                            hi if hi < d_node else d_node)
        if 0 < i == pos:
            # the other neighbour matters only if it shares more
            o = off[nodes[i - 1]]
            hi = off[nodes[i - 1] + 1] - o - 1
            if hi > d_node:
                hi = d_node
            if hi > lca and arena[o + lca + 1] == arena[o_node + lca + 1]:
                return i - 1, _shared_depth(arena, o, o_node, lca + 1, hi)
        return pos, lca

    def add(self, node: int) -> None:
        """Append ``node`` at the back of the mirrored order."""
        ranks = self._ranks
        r = self._pre[node]
        i = bisect_left(ranks, r)
        if i < len(ranks) and ranks[i] == r:
            raise ValueError(f"node {node} already indexed")
        self._seq += 1
        ranks.insert(i, r)
        self._nodes.insert(i, node)
        self._seqs.insert(i, self._seq)
        # the rows are left as they are: the next read rebuilds them
        self._stale = True

    def touch(self, node: int) -> None:
        """Move ``node`` to the back of the mirrored order.

        No production caller (the hosted list never reorders); kept
        because ``bench/tracer.py`` patches it by name (see ROADMAP
        item C).
        """
        if node in self:
            self.remove(node)
            self.add(node)

    def remove(self, node: int) -> None:
        """Drop ``node`` from the index (no-op if absent)."""
        i = self._position(node)
        if i < 0:
            return
        del self._ranks[i], self._nodes[i], self._seqs[i]
        self._stale = True

    def clear(self) -> None:
        del self._ranks[:], self._nodes[:], self._seqs[:], self._rows[:]
        self._stale = False

    def rebuild(self, ordered_members: Iterable[int]) -> None:
        """Reset to exactly ``ordered_members`` in iteration order."""
        self.clear()
        self.extend(ordered_members)

    def extend(self, members: Iterable[int]) -> None:
        """Append ``members``, in iteration order, at the back of the
        mirrored order: one sort and one row sweep for the batch."""
        pre = self._pre
        fresh = [(pre[v], v, seq)
                 for seq, v in enumerate(members, self._seq + 1)]
        if not fresh:
            return
        seq = self._seq + len(fresh)
        fresh.extend(zip(self._ranks, self._nodes, self._seqs))
        fresh.sort()
        ranks, nodes, seqs = (array("i", col) for col in zip(*fresh))
        if len(set(nodes)) != len(nodes):
            # equal ranks sort next to each other
            twice = next(v for v, w in zip(nodes, nodes[1:]) if v == w)
            raise ValueError(f"node {twice} already indexed")
        self._seq = seq
        self._ranks, self._nodes, self._seqs = ranks, nodes, seqs
        self._fill_rows()

    def _fill_rows(self) -> None:
        """Recompute every row: one sweep over the members in rank order.

        Rows start out naming their own member in every cell, which is
        final for the buckets that hold one member.  A bucket of more
        is a run of consecutive members, so the sweep keeps, per level,
        where the open shared bucket on the current chain began and its
        least member so far, and writes that member down the bucket's
        column of cells when a member outside it arrives.
        """
        arena = self._arena
        off = self._off
        nodes = self._nodes
        seqs = self._seqs
        width = self._width
        n = len(nodes)
        rows = array("i", bytes(4 * width * n))
        for k in range(width):
            rows[k::width] = nodes
        self._rows = rows
        self._stale = False
        if not n:
            return
        start = [0] * width
        # the open bucket's least member per level, as three columns
        least = [0] * width
        least_depth = [0] * width
        least_seq = [0] * width
        top = -1  # levels 0..top hold an open bucket of several members
        u = nodes[0]
        o_u = off[u]
        d_u = off[u + 1] - o_u - 1
        for j in range(1, n):
            v = nodes[j]
            o = off[v]
            d = off[v + 1] - o - 1
            # the deepest level the two chains share (_shared_depth,
            # written out: this is the one loop that runs per member)
            lca = 0
            hi = d if d < d_u else d_u
            while lca < hi:
                mid = (lca + hi + 1) >> 1
                if arena[o_u + mid] == arena[o + mid]:
                    lca = mid
                else:
                    hi = mid - 1
            # v is outside the open buckets below the shared ancestor
            while top > lca:
                s = start[top]
                rows[s * width + top:j * width:width] = array(
                    "i", (least[top],)) * (j - s)
                top -= 1
            # u was alone in its buckets from there down to the shared
            # ancestor; v is their second member
            while top < lca:
                top += 1
                start[top] = j - 1
                least[top] = u
                least_depth[top] = d_u
                least_seq[top] = seqs[j - 1]
            # v joins every open bucket; a minimum it cannot displace
            # also stands in the larger buckets above
            seq = seqs[j]
            k = lca
            while k >= 0 and (d < least_depth[k] or (
                    d == least_depth[k] and seq < least_seq[k])):
                least[k] = v
                least_depth[k] = d
                least_seq[k] = seq
                k -= 1
            u, o_u, d_u = v, o, d
        for k in range(top + 1):
            s = start[k]
            rows[s * width + k::width] = array("i", (least[k],)) * (n - s)

    # ------------------------------------------------------------------
    # the query
    # ------------------------------------------------------------------

    def closest(self, dest: int, best_d: int = NO_BOUND) -> Tuple[int, int]:
        """The member strictly closer to ``dest`` than ``best_d`` that a
        linear scan in mirrored order would pick, or ``(-1, best_d)``.

        Matches such a scan bit-for-bit: minimum distance first, then
        earliest iteration-order position (see the module docstring).
        """
        ranks = self._ranks
        if not ranks:
            return -1, best_d
        if self._stale:
            self._fill_rows()
        pos, da = self._neighbour(dest, bisect_left(ranks, self._pre[dest]))
        rows = self._rows
        depth = self._depth
        base = pos * self._width
        d_dest = depth[dest]
        best = -1
        floor = d_dest - best_d
        if floor < 0:
            floor = 0
        # every bucket deeper than da on dest's chain is empty
        while da >= floor:
            v = rows[base + da]
            d = depth[v] + d_dest - 2 * da
            if d < best_d:
                best_d = d
                best = v
                floor = d_dest - best_d
                if floor < 0:
                    floor = 0
            elif d == best_d and best >= 0 and (
                    self._seqs[self._position(v)]
                    < self._seqs[self._position(best)]):
                best = v
            da -= 1
        return best, best_d

    def __repr__(self) -> str:
        return (
            f"AncestorIndex(members={len(self._nodes)}, "
            f"width={self._width})"
        )
