"""Unit tests for the bytes-bounded block cache (repro.store.cache)."""

import pytest

from conftest import make_report, make_sha
from repro.store.cache import BlockCache, CacheStats
from repro.store.columnar import ColumnarBatch


def _batch(n_records: int) -> ColumnarBatch:
    """A decoded block of ``n_records`` 5-engine reports."""
    return ColumnarBatch.from_reports([
        make_report(sha=make_sha(f"cached-{i}"), scan_time=1000 + i)
        for i in range(n_records)])


def _cost(n_records: int) -> int:
    return _batch(n_records).nbytes


class TestLookup:
    def test_miss_then_hit(self):
        cache = BlockCache(max_bytes=10_000)
        assert cache.get((0, 0)) is None
        batch = _batch(2)
        cache.put((0, 0), batch)
        assert cache.get((0, 0)) is batch
        assert cache.hits == 1
        assert cache.misses == 1

    def test_contains_and_len(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put((0, 0), _batch(1))
        cache.put((3, 7), _batch(1))
        assert (0, 0) in cache
        assert (1, 0) not in cache
        assert len(cache) == 2


class TestByteBounding:
    def test_eviction_is_by_bytes_not_entries(self):
        # Cap fits exactly two 2-record blocks; a third insert evicts
        # the least recently used one.
        cache = BlockCache(max_bytes=2 * _cost(2))
        cache.put((0, 0), _batch(2))
        cache.put((0, 1), _batch(2))
        cache.put((0, 2), _batch(2))
        assert cache.evictions == 1
        assert (0, 0) not in cache
        assert (0, 1) in cache and (0, 2) in cache
        assert cache.bytes_resident <= cache.max_bytes

    def test_one_large_block_evicts_many_small(self):
        cache = BlockCache(max_bytes=_cost(8))
        for idx in range(4):
            cache.put((0, idx), _batch(2))
        cache.put((0, 99), _batch(6))
        assert (0, 99) in cache
        assert cache.bytes_resident <= cache.max_bytes
        assert cache.evictions >= 3

    def test_get_refreshes_recency(self):
        cache = BlockCache(max_bytes=2 * _cost(2))
        cache.put((0, 0), _batch(2))
        cache.put((0, 1), _batch(2))
        cache.get((0, 0))  # now (0, 1) is the LRU entry
        cache.put((0, 2), _batch(2))
        assert (0, 0) in cache
        assert (0, 1) not in cache

    def test_oversized_block_not_admitted(self):
        cache = BlockCache(max_bytes=_cost(1))
        cache.put((0, 0), _batch(5))
        assert len(cache) == 0
        assert cache.bytes_resident == 0

    def test_reput_replaces_without_double_counting(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put((0, 0), _batch(2))
        cache.put((0, 0), _batch(3))
        assert cache.bytes_resident == _cost(3)
        assert len(cache) == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(max_bytes=-1)


class TestInvalidation:
    def test_invalidate_one(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put((0, 0), _batch(1))
        assert cache.invalidate((0, 0))
        assert not cache.invalidate((0, 0))  # already gone
        assert cache.invalidations == 1
        assert cache.bytes_resident == 0

    def test_clear(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put((0, 0), _batch(1))
        cache.get((0, 0))
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_resident == 0
        assert cache.hits == 1  # counters survive


class TestHitRate:
    """The live cache's own ratio (not the CacheStats snapshot).

    Regression: publishing gauges off an idle or freshly-cleared cache
    must never divide by zero, and ``clear()`` resets residency only —
    the cumulative counters (and hence the lifetime ratio) survive.
    """

    def test_zero_lookups_is_zero_not_error(self):
        cache = BlockCache(max_bytes=10_000)
        assert cache.lookups == 0
        assert cache.hit_rate() == 0.0

    def test_ratio_over_traffic(self):
        cache = BlockCache(max_bytes=10_000)
        cache.get((0, 0))               # miss
        cache.put((0, 0), _batch(1))
        cache.get((0, 0))               # hit
        cache.get((0, 0))               # hit
        assert cache.lookups == 3
        assert cache.hit_rate() == pytest.approx(2 / 3)

    def test_clear_resets_residency_not_counters(self):
        cache = BlockCache(max_bytes=10_000)
        cache.get((0, 0))               # miss
        cache.put((0, 0), _batch(1))
        cache.get((0, 0))               # hit
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_resident == 0
        assert cache.lookups == 2
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_post_clear_lookups_keep_accumulating(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put((0, 0), _batch(1))
        cache.get((0, 0))               # hit
        cache.clear()
        cache.get((0, 0))               # miss (entry gone after clear)
        assert cache.lookups == 2
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_store_publishes_hit_rate_gauge_without_traffic(self):
        """End to end: a store that never served a lookup publishes
        hit_rate 0.0 (no ZeroDivisionError) on a live registry."""
        from repro.obs import MetricsRegistry
        from repro.store import ReportStore

        registry = MetricsRegistry()
        store = ReportStore(metrics=registry)
        store.publish_metrics()
        assert registry.gauge("store.cache.hit_rate").value == 0.0


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_cold_cache_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0
