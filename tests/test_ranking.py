"""Unit tests for load-based node ranking (paper section 3.2)."""

from repro.core.ranking import DECAY, NodeRanking


class TestTracking:
    def test_hits_accumulate(self):
        r = NodeRanking()
        r.hit(1)
        r.hit(1, 2.0)
        assert r.ranked(among=[1]) == [(1, 3.0)]

    def test_only_a_hit_stores_a_weight(self):
        """A node never hit holds no entry and reads 0.0; its first hit
        creates the weight (callers hit hosted nodes only)."""
        r = NodeRanking()
        assert r.ranked(among=[5]) == [(5, 0.0)] and not r._weight
        r.hit(5)
        assert r.ranked(among=[5]) == [(5, 1.0)] and 5 in r._weight

    def test_forget(self):
        r = NodeRanking()
        r.hit(1)
        r.forget(1)
        assert 1 not in r._weight
        assert r.ranked(among=[1]) == [(1, 0.0)]

    def test_total_weight(self):
        r = NodeRanking()
        r.hit(1, 3.0)
        r.hit(2, 2.0)
        assert sum(w for _, w in r.ranked(among=[1, 2, 3])) == 5.0


class TestRescale:
    def test_decay(self):
        r = NodeRanking()
        r.hit(1, 8.0)
        r.rescale()
        assert r.ranked(among=[1]) == [(1, 8.0 * DECAY)]

    def test_rescale_preserves_order(self):
        r = NodeRanking()
        for n, w in ((1, 10.0), (2, 5.0), (3, 1.0)):
            r.hit(n, w)
        before = [n for n, _ in r.ranked(among=[1, 2, 3])]
        r.rescale()
        assert [n for n, _ in r.ranked(among=[1, 2, 3])] == before

    def test_recent_demand_dominates_after_decay(self):
        """Rescaling approximates *recent* demand: an old hot node
        yields its rank to a newly hot node after a few decays."""
        r = NodeRanking()
        r.hit(1, 100.0)
        for _ in range(4):  # 100 * 0.5 ** 4 = 6.25
            r.rescale()
        r.hit(2, 10.0)
        ranked = [n for n, _ in r.ranked(among=[1, 2])]
        assert ranked[0] == 2


class TestRanked:
    def test_descending_with_deterministic_ties(self):
        r = NodeRanking()
        r.hit(2, 5.0)
        assert r.ranked(among=(3, 1, 2)) == [(2, 5.0), (1, 0.0), (3, 0.0)]

    def test_among_restricts(self):
        r = NodeRanking()
        for n in (1, 2, 3):
            r.hit(n, float(n))
        assert [n for n, _ in r.ranked(among=[1, 3])] == [3, 1]


class TestTopKForFraction:
    NODES = (1, 2, 3, 4)

    def _ranking(self):
        r = NodeRanking()
        for n, w in zip(self.NODES, (50.0, 30.0, 15.0, 5.0)):
            r.hit(n, w)
        return r

    def test_exact_prefix(self):
        r = self._ranking()
        assert r.top_k_for_fraction(0.5, among=self.NODES) == [1]
        assert r.top_k_for_fraction(0.8, among=self.NODES) == [1, 2]
        assert r.top_k_for_fraction(0.95, among=self.NODES) == [1, 2, 3]
        assert r.top_k_for_fraction(1.0, among=self.NODES) == [1, 2, 3, 4]

    def test_zero_fraction_ships_top_node(self):
        """Paper step 3: k is the smallest count reaching the target;
        with target 0 that is still one node (something must move)."""
        r = self._ranking()
        assert r.top_k_for_fraction(0.0, among=self.NODES) == [1]

    def test_cold_counters_still_ship_one(self):
        r = NodeRanking()
        assert r.top_k_for_fraction(0.5, among=[9]) == [9]

    def test_empty_ranking(self):
        assert NodeRanking().top_k_for_fraction(0.5, among=()) == []

    def test_among_subset(self):
        r = self._ranking()
        assert r.top_k_for_fraction(0.4, among=[2, 3, 4]) == [2]


class TestBottom:
    def test_lowest_ranked_first(self):
        r = NodeRanking()
        for n, w in ((1, 5.0), (2, 1.0), (3, 3.0)):
            r.hit(n, w)
        assert r.bottom(2, among=(1, 2, 3)) == [2, 3]

    def test_among(self):
        r = NodeRanking()
        for n, w in ((1, 5.0), (2, 1.0), (3, 3.0)):
            r.hit(n, w)
        assert r.bottom(1, among=[1, 3]) == [3]
