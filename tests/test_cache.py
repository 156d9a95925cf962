"""Unit tests for the LRU node-map cache (paper section 2.4)."""

import pytest

from repro.server.cache import LRUCache


class TestBasics:
    def test_put_get(self):
        c = LRUCache(capacity=4)
        c.put(1, [10, 11])
        assert list(c.get(1)) == [10, 11]

    def test_miss(self):
        c = LRUCache(capacity=4)
        assert c.get(1) is None
        assert c.misses == 1

    def test_contains(self):
        c = LRUCache(capacity=4)
        c.put(1, [10])
        assert 1 in c and 2 not in c

    def test_zero_capacity_noop(self):
        c = LRUCache(capacity=0)
        c.put(1, [10])
        assert len(c) == 0

    def test_empty_servers_not_inserted(self):
        c = LRUCache(capacity=4)
        c.put(1, [])
        assert 1 not in c


class TestLRU:
    def test_eviction_order(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.put(2, [20])
        c.put(3, [30])
        assert 1 not in c
        assert c.evictions == 1

    def test_get_touches(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.put(2, [20])
        c.get(1)
        c.put(3, [30])
        assert 1 in c and 2 not in c

    def test_touch_without_get(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.put(2, [20])
        c.touch(1)
        c.put(3, [30])
        assert 1 in c

    def test_peek_does_not_touch(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.put(2, [20])
        c.peek(1)
        c.put(3, [30])
        assert 1 not in c

    def test_put_touches_existing(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.put(2, [20])
        c.put(1, [12])
        c.put(3, [30])
        assert 1 in c and 2 not in c


class TestEntryMerging:
    def test_put_merges_up_to_rmap(self):
        c = LRUCache(capacity=2, rmap=3)
        c.put(1, [10])
        c.put(1, [11, 12, 13])
        assert list(c.peek(1)) == [10, 11, 12]

    def test_put_dedupes(self):
        c = LRUCache(capacity=2, rmap=4)
        c.put(1, [10, 10, 11])
        assert list(c.peek(1)) == [10, 11]

    def test_replace(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.replace(1, [20, 21])
        assert list(c.peek(1)) == [20, 21]

    def test_replace_empty_removes(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        c.replace(1, [])
        assert 1 not in c

    def test_remove(self):
        c = LRUCache(capacity=2)
        c.put(1, [10])
        assert c.remove(1)
        assert not c.remove(1)


class TestPutPath:
    def test_skips_own_hops_and_hosted_nodes(self):
        c = LRUCache(capacity=4)
        owner = [0, 0, 0, 7, 0]  # server 7 owns node 3
        c.put_path([(1, 10), (2, 7), (3, 11), (4, 12)], 7, owner, {4: None})
        assert [(n, list(e)) for n, e in c.items()] == [(1, [10])]

    def test_extends_touches_and_evicts_like_put(self):
        c = LRUCache(capacity=2, rmap=2)
        c.put_path([(1, 10), (2, 20), (1, 11), (1, 12), (3, 30)], 0,
                   [1] * 4, ())
        assert [(n, list(e)) for n, e in c.items()] == [
            (1, [10, 11]), (3, [30])]
        assert c.evictions == 1

    def test_zero_capacity_noop(self):
        c = LRUCache(capacity=0)
        c.put_path([(1, 10)], 0, [1] * 2, ())
        assert len(c) == 0


class TestStats:
    def test_counts_hits_and_misses(self):
        c = LRUCache(capacity=4)
        c.put(1, [10])
        c.get(1)
        c.get(2)
        assert (c.hits, c.misses) == (1, 1)

    def test_clear(self):
        c = LRUCache(capacity=4)
        c.put(1, [10])
        c.clear()
        assert len(c) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)
        with pytest.raises(ValueError):
            LRUCache(capacity=1, rmap=0)
