"""Tests for the per-I/O-node storage cache."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import StorageCache

KB = 1024


def make_cache(capacity_blocks=4, block_size=64 * KB):
    return StorageCache(capacity_blocks * block_size, block_size)


class TestValidation:
    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            StorageCache(-1, 64)

    def test_zero_block_size(self):
        with pytest.raises(ValueError):
            StorageCache(1024, 0)


class TestBlockAddressing:
    def test_block_of(self):
        c = make_cache()
        assert c.block_of(0) == 0
        assert c.block_of(64 * KB) == 1
        assert c.block_of(64 * KB - 1) == 0

    def test_blocks_of_range(self):
        c = make_cache()
        assert c.blocks_of(0, 64 * KB) == [0]
        assert c.blocks_of(10, 64 * KB) == [0, 1]
        assert c.blocks_of(64 * KB, 128 * KB) == [1, 2]

    def test_blocks_of_empty(self):
        c = make_cache()
        assert c.blocks_of(100, 0) == []


class TestLRU:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(7)
        c.insert(7)
        assert c.lookup(7)
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_capacity_evicts_lru(self):
        c = make_cache(capacity_blocks=2)
        c.insert(1)
        c.insert(2)
        c.insert(3)  # evicts 1
        assert not c.contains(1)
        assert c.contains(2)
        assert c.contains(3)
        assert c.stats.evictions == 1

    def test_lookup_refreshes_recency(self):
        c = make_cache(capacity_blocks=2)
        c.insert(1)
        c.insert(2)
        c.lookup(1)      # 1 becomes MRU
        c.insert(3)      # evicts 2
        assert c.contains(1)
        assert not c.contains(2)

    def test_contains_does_not_touch_stats_or_order(self):
        c = make_cache(capacity_blocks=2)
        c.insert(1)
        c.insert(2)
        c.contains(1)
        c.insert(3)  # still evicts 1: contains() didn't refresh
        assert not c.contains(1)
        assert c.stats.accesses == 0

    def test_never_exceeds_capacity(self):
        c = make_cache(capacity_blocks=3)
        for b in range(20):
            c.insert(b)
        assert len(c) == 3

    def test_sequential_scan_larger_than_cache_always_misses(self):
        """The LRU scan-thrash behaviour madbench2 relies on."""
        c = make_cache(capacity_blocks=4)
        n = 8
        for b in range(n):
            c.lookup(b)
            c.insert(b)
        hits_before = c.stats.hits
        for b in range(n):  # re-scan in the same order
            c.lookup(b)
            c.insert(b)
        assert c.stats.hits == hits_before  # zero hits on the re-scan


class TestDirty:
    def test_dirty_eviction_reported_for_flush(self):
        c = make_cache(capacity_blocks=1)
        assert c.insert(1, dirty=True) == []
        flush = c.insert(2)
        assert flush == [1]
        assert c.stats.dirty_evictions == 1

    def test_clean_eviction_not_flushed(self):
        c = make_cache(capacity_blocks=1)
        c.insert(1, dirty=False)
        assert c.insert(2) == []

    def test_reinsert_keeps_dirty_bit(self):
        c = make_cache()
        c.insert(1, dirty=True)
        c.insert(1, dirty=False)  # re-touch must not lose dirtiness
        assert c.dirty_blocks() == [1]

    def test_mark_clean(self):
        c = make_cache()
        c.insert(1, dirty=True)
        c.mark_clean(1)
        assert c.dirty_blocks() == []

    def test_invalidate_reports_dirtiness(self):
        c = make_cache()
        c.insert(1, dirty=True)
        c.insert(2, dirty=False)
        assert c.invalidate(1) is True
        assert c.invalidate(2) is False
        assert c.invalidate(99) is False

    def test_dirty_blocks_sorted(self):
        c = make_cache()
        c.insert(3, dirty=True)
        c.insert(1, dirty=True)
        c.insert(2, dirty=False)
        assert c.dirty_blocks() == [1, 3]

    def test_zero_capacity_cache_flushes_dirty_immediately(self):
        c = StorageCache(0, 64 * KB)
        assert c.insert(5, dirty=True) == [5]
        assert c.insert(6, dirty=False) == []

    def test_hit_rate(self):
        c = make_cache()
        c.insert(1)
        c.lookup(1)
        c.lookup(2)
        assert c.stats.hit_rate == pytest.approx(0.5)


class ScanCache:
    """The cache as it stood with the dirty bit stored per LRU entry and
    ``dirty_blocks`` a scan of the whole LRU (test oracle)."""

    def __init__(self, capacity_blocks):
        self.capacity_blocks = capacity_blocks
        self.blocks = OrderedDict()  # block -> dirty

    def lookup(self, block):
        if block in self.blocks:
            self.blocks.move_to_end(block)
            return True
        return False

    def insert(self, block, dirty):
        if self.capacity_blocks == 0:
            return [block] if dirty else []
        if block in self.blocks:
            self.blocks[block] = self.blocks[block] or dirty
            self.blocks.move_to_end(block)
            return []
        self.blocks[block] = dirty
        flush = []
        while len(self.blocks) > self.capacity_blocks:
            victim, was_dirty = self.blocks.popitem(last=False)
            if was_dirty:
                flush.append(victim)
        return flush

    def invalidate(self, block):
        return bool(self.blocks.pop(block, False))

    def mark_clean(self, block):
        if block in self.blocks:
            self.blocks[block] = False

    def dirty_scan(self):
        return [b for b, dirty in self.blocks.items() if dirty]


cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_dirty", "lookup", "invalidate",
                         "mark_clean"]),
        st.integers(0, 12),
    ),
    max_size=80,
)


class TestDirtySetMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(0, 5), ops=cache_ops)
    def test_dirty_set_equals_lru_scan(self, capacity, ops):
        """After any insert/evict/invalidate/mark_clean sequence the dirty
        set is the old scan's, sorted, and every return value agrees."""
        cache = make_cache(capacity_blocks=capacity)
        oracle = ScanCache(capacity)
        for op, block in ops:
            if op == "insert":
                assert cache.insert(block) == oracle.insert(block, False)
            elif op == "insert_dirty":
                assert cache.insert(block, dirty=True) == (
                    oracle.insert(block, True)
                )
            else:
                assert getattr(cache, op)(block) == getattr(oracle, op)(block)
            assert cache.dirty_blocks() == sorted(oracle.dirty_scan())
            assert len(cache) == len(oracle.blocks)


class TestStatsAccounting:
    """Every insert/evict/invalidate path must keep the identity
    ``insertions == evictions + invalidations + resident blocks``."""

    @staticmethod
    def check_identity(c):
        assert c.stats.insertions == (
            c.stats.evictions + c.stats.invalidations + len(c)
        )

    def test_zero_capacity_insert_is_counted(self):
        """Regression: the pass-through path of a zero-capacity cache used
        to skip the insertion counter entirely, so stats-based hit/traffic
        reports saw no traffic at all."""
        c = StorageCache(0, 64 * KB)
        c.insert(5, dirty=False)
        c.insert(6, dirty=True)
        assert c.stats.insertions == 2
        assert c.stats.evictions == 2
        assert c.stats.dirty_evictions == 1
        self.check_identity(c)

    def test_invalidate_is_counted(self):
        """Regression: invalidate() used to drop blocks without counting,
        leaving insertions > evictions + resident blocks."""
        c = make_cache(capacity_blocks=4)
        c.insert(1, dirty=True)
        c.insert(2)
        assert c.invalidate(1) is True
        assert c.stats.invalidations == 1
        self.check_identity(c)

    def test_invalidate_missing_block_not_counted(self):
        c = make_cache()
        assert c.invalidate(42) is False
        assert c.stats.invalidations == 0

    def test_reinsert_does_not_double_count(self):
        c = make_cache(capacity_blocks=4)
        c.insert(1)
        c.insert(1, dirty=True)  # re-touch, not a new insertion
        assert c.stats.insertions == 1
        self.check_identity(c)

    def test_identity_holds_under_churn(self):
        c = make_cache(capacity_blocks=3)
        for b in range(20):
            c.insert(b, dirty=(b % 2 == 0))
            if b % 5 == 0:
                c.invalidate(b)
            self.check_identity(c)
