"""Load-based node ranking (paper section 3.2).

Each server assigns every hosted node a *weight* proportional to the
load incurred on the node's behalf: a counter incremented whenever a
query is processed for the node, rescaled periodically (multiplied by a
decay factor) so the ranking approximates *recent* demand.

The ranking answers two questions for the replication protocol:

* which top-k nodes to replicate so the transferred weight fraction
  reaches the target (creation step 3), and
* which lowest-ranked replicas to evict when Rfact demands room
  (deletion, section 3.5).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: multiplier applied to node weights at each rescale
DECAY = 0.5


class NodeRanking:
    """Per-hosted-node demand counters with periodic exponential decay.

    A weight exists only for a node that has had demand since it was
    last hosted: a node never hit reads ``0.0``, exactly as a stored
    zero would, so every query that ranks hosted nodes names them in
    ``among``."""

    __slots__ = ("_weight",)

    def __init__(self) -> None:
        self._weight: Dict[int, float] = {}

    def forget(self, node: int) -> None:
        """Drop ``node``'s weight (node no longer hosted)."""
        self._weight.pop(node, None)

    def hit(self, node: int, amount: float = 1.0) -> None:
        """Record routing work performed on ``node``'s behalf (a hosted
        node: its first hit creates its weight)."""
        weight = self._weight
        weight[node] = weight.get(node, 0.0) + amount

    def rescale(self) -> None:
        """Periodic decay (by :data:`DECAY`) so the ranking tracks
        recent demand patterns.

        A zero weight is left alone: ``0.0 * DECAY`` is ``0.0``, and
        writing it back would give every cold node its own float."""
        weight = self._weight
        for k, w in weight.items():
            if w:
                weight[k] = w * DECAY

    def ranked(self, among: Iterable[int]) -> List[Tuple[int, float]]:
        """``among`` by descending weight (ties broken by node id for
        determinism)."""
        get = self._weight.get
        return sorted(((n, get(n, 0.0)) for n in among),
                      key=lambda kv: (-kv[1], kv[0]))

    def top_k_for_fraction(
        self, fraction: float, among: Iterable[int]
    ) -> List[int]:
        """Smallest top-ranked prefix of ``among`` whose weight sum
        reaches ``fraction`` of its total weight (creation protocol
        step 3).

        Always returns at least one node when ``among`` is not empty,
        so an overloaded server sheds *something* even when weights are
        all zero (cold counters).
        """
        ranked = self.ranked(among)
        if not ranked:
            return []
        total = sum(w for _, w in ranked)
        if total <= 0.0:
            return [ranked[0][0]]
        target = max(0.0, min(1.0, fraction)) * total
        out: List[int] = []
        acc = 0.0
        for node, w in ranked:
            out.append(node)
            acc += w
            if acc >= target:
                break
        return out

    def bottom(self, k: int, among: Iterable[int]) -> List[int]:
        """The ``k`` lowest-ranked nodes of ``among`` (eviction
        candidates)."""
        ranked = self.ranked(among)
        ranked.reverse()
        return [n for n, _ in ranked[:k]]
