"""``PliCache`` byte accounting across delta maintenance.

``replace`` swaps a resident composite for its delta-merged successor:
it must re-account ``composite_bytes`` to the post-merge size (an
in-place merge grows the PLI without any ``put`` traffic), preserve the
entry's LRU position, and move no insertion/eviction counters of its
own.
"""

from __future__ import annotations

from repro.pli import PLI
from repro.pli.cache import PliCache, estimated_pli_bytes


def _pli(n_clustered: int, n_rows: int = 64) -> PLI:
    """One cluster of ``n_clustered`` rows (size controls the estimate)."""
    return PLI([tuple(range(n_clustered))], n_rows)


def _resident_estimate(cache: PliCache) -> int:
    return sum(
        estimated_pli_bytes(cache.peek(mask))
        for mask in cache.composite_masks()
    )


class TestReplaceAccounting:
    def test_bytes_track_the_post_merge_size(self):
        cache = PliCache()
        cache.put(0b011, _pli(4))
        before = cache.composite_bytes
        grown = _pli(12)
        cache.replace(0b011, grown)
        assert cache.composite_bytes == _resident_estimate(cache)
        assert cache.composite_bytes == before + 8 * (12 - 4)

    def test_replace_is_not_traffic(self):
        cache = PliCache()
        cache.put(0b011, _pli(4))
        insertions, evictions = cache.insertions, cache.evictions
        hits, misses = cache.hits, cache.misses
        cache.replace(0b011, _pli(8))
        assert cache.insertions == insertions
        assert cache.evictions == evictions
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_replace_preserves_lru_position(self):
        cache = PliCache(capacity=2)
        cache.put(0b011, _pli(2))
        cache.put(0b101, _pli(2))
        # Replacing the older entry must not refresh it: the next
        # overflow still evicts it first.
        cache.replace(0b011, _pli(6))
        cache.put(0b110, _pli(2))
        assert 0b011 not in cache
        assert 0b101 in cache and 0b110 in cache

    def test_replace_of_evicted_mask_degrades_to_put(self):
        cache = PliCache()
        insertions = cache.insertions
        cache.replace(0b011, _pli(4))
        assert 0b011 in cache
        assert cache.insertions == insertions + 1
        assert cache.composite_bytes == _resident_estimate(cache)

    def test_single_column_replace_swaps_the_pinned_entry(self):
        cache = PliCache()
        cache.put(0b001, _pli(2))
        replacement = _pli(5)
        cache.replace(0b001, replacement)
        assert cache.peek(0b001) is replacement
        assert cache.composite_bytes == 0  # pinned entries are not counted


class TestBudgetedGrowth:
    def test_discard_returns_bytes(self):
        cache = PliCache()
        cache.put(0b011, _pli(4))
        cache.put(0b101, _pli(6))
        cache.discard(0b011)
        assert cache.composite_bytes == _resident_estimate(cache)
        cache.discard(0b011)  # absent: no-op, no drift
        assert cache.composite_bytes == _resident_estimate(cache)
        cache.discard(0b101)
        assert cache.composite_bytes == 0
