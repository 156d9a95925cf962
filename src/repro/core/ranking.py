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

from typing import Dict, Iterable, List, Optional, Tuple

#: multiplier applied to node weights at each rescale
DECAY = 0.5


class NodeRanking:
    """Per-hosted-node demand counters with periodic exponential decay.

    A weight exists only for a node that has had demand since it was
    last hosted: a node never hit reads ``0.0``, exactly as a stored
    zero would, so every query that ranks hosted nodes passes them as
    ``among``."""

    __slots__ = ("_weight", "decay")

    def __init__(self, decay: float = DECAY) -> None:
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self._weight: Dict[int, float] = {}
        self.decay = decay

    def __len__(self) -> int:
        return len(self._weight)

    def __contains__(self, node: int) -> bool:
        return node in self._weight

    def forget(self, node: int) -> None:
        """Drop ``node``'s weight (node no longer hosted)."""
        self._weight.pop(node, None)

    def hit(self, node: int, amount: float = 1.0) -> None:
        """Record routing work performed on ``node``'s behalf (a hosted
        node: its first hit creates its weight)."""
        weight = self._weight
        weight[node] = weight.get(node, 0.0) + amount

    def weight(self, node: int) -> float:
        return self._weight.get(node, 0.0)

    def total_weight(self) -> float:
        return sum(self._weight.values())

    def rescale(self) -> None:
        """Periodic decay so the ranking tracks recent demand patterns.

        A zero weight is left alone: ``0.0 * d`` is ``0.0``, and
        writing it back would give every cold node its own float."""
        d = self.decay
        weight = self._weight
        for k, w in weight.items():
            if w:
                weight[k] = w * d

    def ranked(self, among: Optional[Iterable[int]] = None) -> List[Tuple[int, float]]:
        """Nodes by descending weight (ties broken by node id for determinism)."""
        items = (
            self._weight.items()
            if among is None
            else ((n, self._weight.get(n, 0.0)) for n in among)
        )
        return sorted(items, key=lambda kv: (-kv[1], kv[0]))

    def top_k_for_fraction(
        self, fraction: float, among: Optional[Iterable[int]] = None
    ) -> List[int]:
        """Smallest top-ranked prefix whose weight sum reaches ``fraction``
        of the total weight (creation protocol step 3).

        Always returns at least one node when any is ranked (every node
        of ``among``), so an overloaded server sheds *something* even
        when weights are all zero (cold counters).
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

    def bottom(self, k: int, among: Optional[Iterable[int]] = None) -> List[int]:
        """The ``k`` lowest-ranked nodes (eviction candidates)."""
        ranked = self.ranked(among)
        ranked.reverse()
        return [n for n, _ in ranked[:k]]
