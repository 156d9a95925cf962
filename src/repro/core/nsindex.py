"""Namespace ancestor index: O(depth) closest-member queries.

The per-hop routing decision asks of a peer's hosted nodes: *which
member is closest to the destination, breaking ties by iteration
order?*  A linear scan answers it in O(|members| * depth) per hop,
which caps large-namespace runs: a peer hosts on the order of a
hundred nodes, and the hosted list changes only when a replica is
installed or evicted.  (The LRU cache asks the same question of 16-26
entries it rewrites several times per message, so it keeps no index
and is scanned instead: :func:`repro.core.routing.scan_cache`.)

:class:`AncestorIndex` answers it in O(depth(dest)) dict probes by
bucketing members under every node of their ancestor chain.  For a
member ``v`` and destination ``t``, the namespace distance is

    d(v, t) = depth(v) + depth(t) - 2 * lca_depth(v, t)

and ``lca(v, t)`` is always on ``t``'s (precomputed) ancestor chain.
Walking that chain deepest-first, the bucket at ancestor ``a`` (depth
``da``) contains exactly the members with ``lca_depth(v, t) >= da``,
and its best contribution is its minimum-depth member.  So the closest
member overall is found by probing ``depth(t) + 1`` buckets -- the
state size never appears in the per-hop cost.

**Determinism contract.**  A scan breaks ties by "first member in
iteration order at a strictly smaller distance" -- hosted-list
position for the replica store.  The winner is therefore the member
minimising the pair ``(distance, position)`` lexicographically.  The
index reproduces this exactly by stamping every member with a
monotonically increasing *sequence number* (re-stamped on
:meth:`touch`, the ``move_to_end`` of an ordered collection) and
keeping each bucket as a lazy min-heap ordered by ``(depth, seq)``.
Why per-bucket ``(depth, seq)`` minima suffice:

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

Stale heap entries (from :meth:`touch` re-stamps and :meth:`remove`)
are discarded lazily against the member table and compacted when a
bucket's heap grows past a small multiple of its live membership, so
all mutations stay O(depth) amortised.

**Memory.**  Deep in the tree most ancestors index exactly one member
(a member's near-ancestors are rarely shared), so single-member
buckets are stored as the bare entry tuple ``(depth, seq, node)``
instead of the general ``[heap, live]`` pair -- two fewer container
objects per bucket.  A tuple bucket is always live and current:
:meth:`touch` replaces it in place and :meth:`remove` deletes the
key, so the query path needs no staleness check for it.  At the
million-node scale this representation carries the bulk of the
index's buckets (DESIGN.md section 11).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Tuple

if TYPE_CHECKING:
    from repro.namespace.tree import Namespace

#: "no bound" initial distance for :meth:`AncestorIndex.closest`.
NO_BOUND = 1 << 30

# bucket layout, two representations keyed by type:
#   tuple          -- a single live member's entry (depth, seq, node);
#                     never stale (touch replaces, remove deletes)
#   [heap, live]   -- general form: lazy min-heap of entry tuples plus
#                     the live-member count
_HEAP = 0
_LIVE = 1


class AncestorIndex:
    """Incrementally maintained ancestor -> candidate-bucket map.

    Mirrors an ordered member collection (the hosted list):
    :meth:`add` appends at the back, :meth:`touch` moves a member to
    the back, :meth:`remove` deletes.  :meth:`closest` answers
    closest-member queries in O(depth(dest)).
    """

    __slots__ = ("_arena", "_off", "_depth", "_buckets", "_members", "_seq")

    def __init__(self, ns: "Namespace", members: Iterable[int] = ()) -> None:
        # ancestor chains are read straight out of the namespace's flat
        # arena (chain v = _arena[_off[v]:_off[v + 1]]): no per-chain
        # slice objects on the per-hop path
        self._arena = ns.anc_arena
        self._off = ns.anc_off
        self._depth = ns.depth
        # namespace node id -> [heap, live count]
        self._buckets: Dict[int, list] = {}
        # member node id -> current (valid) sequence stamp
        self._members: Dict[int, int] = {}
        self._seq = 0
        for v in members:
            self.add(v)

    # ------------------------------------------------------------------
    # membership mirror
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def nodes(self) -> Iterator[int]:
        """Live members, in no particular order."""
        return iter(self._members)

    def add(self, node: int) -> None:
        """Append ``node`` at the back of the mirrored order."""
        if node in self._members:
            raise ValueError(f"node {node} already indexed")
        self._seq += 1
        seq = self._seq
        self._members[node] = seq
        entry = (self._depth[node], seq, node)
        buckets = self._buckets
        arena = self._arena
        for i in range(self._off[node], self._off[node + 1]):
            a = arena[i]
            b = buckets.get(a)
            if b is None:
                buckets[a] = entry
            elif type(b) is tuple:
                heap = [b]
                heappush(heap, entry)
                buckets[a] = [heap, 2]
            else:
                heappush(b[_HEAP], entry)
                b[_LIVE] += 1

    def touch(self, node: int) -> None:
        """Move ``node`` to the back of the mirrored order.

        No production caller since the cache stopped mirroring its LRU
        order here (the hosted list never reorders); kept because
        ``bench/tracer.py`` patches it by name (see ROADMAP item C).
        """
        members = self._members
        cur = members.get(node)
        if cur is None:
            return
        if cur == self._seq:
            # already the most recently stamped member: re-stamping
            # cannot change relative order, so skip the heap pushes
            # (the common case under skewed workloads -- repeated hits
            # on the hottest entry)
            return
        self._seq += 1
        seq = self._seq
        members[node] = seq
        entry = (self._depth[node], seq, node)
        buckets = self._buckets
        arena = self._arena
        for i in range(self._off[node], self._off[node + 1]):
            a = arena[i]
            b = buckets[a]
            if type(b) is tuple:
                # the bucket's only live member is ``node`` itself:
                # replace the entry in place, nothing goes stale
                buckets[a] = entry
                continue
            heap = b[_HEAP]
            heappush(heap, entry)
            if len(heap) > 32 and len(heap) > 4 * b[_LIVE]:
                self._compact(a, b)

    def remove(self, node: int) -> None:
        """Drop ``node`` from the index (no-op if absent)."""
        if self._members.pop(node, None) is None:
            return
        buckets = self._buckets
        arena = self._arena
        for i in range(self._off[node], self._off[node + 1]):
            a = arena[i]
            b = buckets[a]
            if type(b) is tuple:
                del buckets[a]
                continue
            b[_LIVE] -= 1
            if b[_LIVE] == 0:
                del buckets[a]
            else:
                heap = b[_HEAP]
                if len(heap) > 32 and len(heap) > 4 * b[_LIVE]:
                    self._compact(a, b)

    def clear(self) -> None:
        self._buckets.clear()
        self._members.clear()

    def rebuild(self, ordered_members: Iterable[int]) -> None:
        """Reset to exactly ``ordered_members`` in iteration order."""
        self.clear()
        for v in ordered_members:
            self.add(v)

    def _compact(self, a: int, b: list) -> None:
        members = self._members
        heap = b[_HEAP]
        heap[:] = [e for e in heap if members.get(e[2]) == e[1]]
        if len(heap) == 1:
            # shrunk back to a single live member: demote to the
            # compact tuple representation
            self._buckets[a] = heap[0]
        else:
            heapify(heap)

    # ------------------------------------------------------------------
    # the query
    # ------------------------------------------------------------------

    def closest(self, dest: int, best_d: int = NO_BOUND) -> Tuple[int, int]:
        """The member strictly closer to ``dest`` than ``best_d`` that a
        linear scan in mirrored order would pick, or ``(-1, best_d)``.

        Matches such a scan bit-for-bit: minimum distance first, then
        earliest iteration-order position (see the module docstring).
        """
        members = self._members
        if not members:
            return -1, best_d
        buckets = self._buckets
        arena = self._arena
        o_dest = self._off[dest]
        d_dest = self._off[dest + 1] - o_dest - 1
        best = -1
        best_seq = 0
        da = d_dest
        floor = d_dest - best_d
        if floor < 0:
            floor = 0
        while da >= floor:
            b = buckets.get(arena[o_dest + da])
            if b is not None:
                if type(b) is tuple:
                    # compact single-member bucket: always live
                    depth_v, seq, v = b
                else:
                    heap = b[_HEAP]
                    # discard stale heads (touched or removed members)
                    while heap:
                        top = heap[0]
                        if members.get(top[2]) == top[1]:
                            break
                        heappop(heap)
                    if not heap:
                        da -= 1
                        continue
                    depth_v, seq, v = heap[0]
                d = depth_v + d_dest - 2 * da
                if d < best_d:
                    best_d = d
                    best = v
                    best_seq = seq
                    floor = d_dest - best_d
                    if floor < 0:
                        floor = 0
                elif d == best_d and best >= 0 and seq < best_seq:
                    best = v
                    best_seq = seq
            da -= 1
        return best, best_d

    def __repr__(self) -> str:
        return (
            f"AncestorIndex(members={len(self._members)}, "
            f"buckets={len(self._buckets)})"
        )
