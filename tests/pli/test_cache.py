"""Tests for the PLI cache."""

import pytest

from repro.pli import PLI, PliCache
from repro.pli.cache import estimated_pli_bytes


def make_pli(n: int = 4) -> PLI:
    return PLI([[0, 1]], n)


def sized_pli(n_clusters: int, cluster_size: int = 2) -> PLI:
    """A PLI whose estimated byte size scales with its cluster count."""
    clusters = [
        list(range(i * cluster_size, (i + 1) * cluster_size))
        for i in range(n_clusters)
    ]
    return PLI(clusters, n_clusters * cluster_size)


class TestPliCache:
    def test_put_get(self):
        cache = PliCache()
        pli = make_pli()
        cache.put(0b11, pli)
        assert cache.get(0b11) is pli
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = PliCache()
        assert cache.get(0b11) is None
        assert cache.misses == 1

    def test_contains(self):
        cache = PliCache()
        cache.put(0b11, make_pli())
        assert 0b11 in cache
        assert 0b101 not in cache

    def test_single_columns_are_pinned(self):
        cache = PliCache(capacity=1)
        for column in range(5):
            cache.put(1 << column, make_pli())
        assert len(cache) == 5  # nothing evicted
        for column in range(5):
            assert cache.get(1 << column) is not None

    def test_composites_evicted_lru(self):
        cache = PliCache(capacity=2)
        cache.put(0b011, make_pli())
        cache.put(0b101, make_pli())
        cache.get(0b011)  # refresh
        cache.put(0b110, make_pli())  # evicts 0b101
        assert 0b011 in cache
        assert 0b101 not in cache
        assert 0b110 in cache

    def test_peek_does_not_touch_stats(self):
        cache = PliCache()
        cache.put(0b11, make_pli())
        cache.peek(0b11)
        cache.peek(0b100)
        assert cache.hits == 0
        assert cache.misses == 0

    def test_clear_composites_keeps_pinned(self):
        cache = PliCache()
        cache.put(0b1, make_pli())
        cache.put(0b11, make_pli())
        cache.clear_composites()
        assert 0b1 in cache
        assert 0b11 not in cache

    def test_hit_rate(self):
        cache = PliCache()
        assert cache.hit_rate == 0.0
        cache.put(0b1, make_pli())
        cache.get(0b1)
        cache.get(0b10)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PliCache(capacity=-1)

    def test_zero_capacity_evicts_composites_at_once(self):
        cache = PliCache(capacity=0)
        cache.put(0b1, make_pli())
        cache.put(0b11, make_pli())
        assert 0b1 in cache and 0b11 not in cache
        assert (cache.insertions, cache.evictions) == (2, 1)
        assert cache.composite_bytes == 0


class TestByteEstimate:
    """``composite_bytes`` tracks the estimated encoded size of the
    resident composites."""

    def test_replacement_rebalances_the_byte_estimate(self):
        cache = PliCache()
        cache.put(0b11, sized_pli(100))
        heavy = cache.composite_bytes
        cache.put(0b11, sized_pli(2))  # same mask, smaller PLI
        assert cache.composite_bytes == estimated_pli_bytes(sized_pli(2))
        assert cache.composite_bytes < heavy
        assert cache.insertions == 1  # replacement, not a new entry

    def test_bytes_tracked_through_clear_and_stats(self):
        cache = PliCache()
        cache.put(0b1, make_pli())  # pinned: never byte-accounted
        cache.put(0b11, sized_pli(3))
        assert cache.stats()["cache_bytes"] == estimated_pli_bytes(sized_pli(3))
        cache.clear_composites()
        assert cache.composite_bytes == 0
        assert cache.stats()["cache_bytes"] == 0


class TestCounters:
    def test_insertions_counted_once_per_entry(self):
        cache = PliCache(capacity=4)
        cache.put(0b11, make_pli())
        cache.put(0b11, make_pli())  # overwrite, same mask
        cache.put(0b101, make_pli())
        assert cache.insertions == 2

    def test_eviction_order_is_lru(self):
        cache = PliCache(capacity=2)
        cache.put(0b011, make_pli())
        cache.put(0b101, make_pli())
        cache.get(0b011)                  # 0b101 becomes least recent
        cache.put(0b110, make_pli())      # evicts 0b101
        cache.put(0b1100, make_pli())     # evicts 0b011
        assert 0b101 not in cache
        assert 0b011 not in cache
        assert 0b110 in cache
        assert cache.evictions == 2

    def test_stats_snapshot(self):
        cache = PliCache(capacity=2)
        cache.put(0b1, make_pli())
        cache.get(0b1)
        cache.get(0b10)
        stats = cache.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_insertions"] == 1
        assert stats["cache_evictions"] == 0
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
