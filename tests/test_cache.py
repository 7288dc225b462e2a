"""Unit tests for the set-associative cache model."""

import pytest

from repro.simulator.cache import CLEAN, DIRTY, CacheStats, SetAssocCache


def make_cache(size=8 * 1024, assoc=2, line=64):
    return SetAssocCache("T", size, assoc, line)


class TestConstruction:
    def test_geometry(self):
        c = SetAssocCache("T", 64 * 1024, 4, 64)
        assert c.n_sets == 64 * 1024 // (4 * 64)
        assert c.size_bytes == 64 * 1024

    def test_non_power_of_two_sets_allowed(self):
        c = SetAssocCache("T", 26 * 1024 * 1024, 16, 64)
        assert c.n_sets == 26 * 1024 * 1024 // (16 * 64)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            SetAssocCache("T", 0, 2)

    def test_rejects_zero_assoc(self):
        with pytest.raises(ValueError):
            SetAssocCache("T", 1024, 0)

    def test_rejects_size_below_one_set(self):
        with pytest.raises(ValueError):
            SetAssocCache("T", 64, 2, 64)


class TestAccess:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        hit, victim = c.access(100, False)
        assert not hit and victim is None
        hit, victim = c.access(100, False)
        assert hit and victim is None
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_write_marks_dirty(self):
        c = make_cache()
        c.access(5, True)
        assert c.lookup(5) == DIRTY

    def test_read_leaves_clean(self):
        c = make_cache()
        c.access(5, False)
        assert c.lookup(5) == CLEAN

    def test_write_hit_dirties_clean_line(self):
        c = make_cache()
        c.access(5, False)
        c.access(5, True)
        assert c.lookup(5) == DIRTY

    def test_eviction_on_set_overflow(self):
        c = make_cache(size=2 * 64 * 4, assoc=2)  # 4 sets, 2 ways
        n = c.n_sets
        # Three lines mapping to the same set: third evicts the LRU (first).
        c.access(0, False)
        c.access(n, False)
        hit, victim = c.access(2 * n, False)
        assert not hit
        assert victim == (0, CLEAN)
        assert 0 not in c
        assert n in c and 2 * n in c

    def test_lru_order_respects_rereference(self):
        c = make_cache(size=2 * 64 * 4, assoc=2)
        n = c.n_sets
        c.access(0, False)
        c.access(n, False)
        c.access(0, False)  # 0 becomes MRU; n is now LRU
        _, victim = c.access(2 * n, False)
        assert victim[0] == n

    def test_dirty_victim_counts_writeback(self):
        c = make_cache(size=2 * 64 * 4, assoc=2)
        n = c.n_sets
        c.access(0, True)
        c.access(n, False)
        _, victim = c.access(2 * n, False)
        assert victim == (0, DIRTY)
        assert c.stats.writebacks == 1

    def test_capacity_never_exceeded(self):
        c = make_cache(size=4 * 1024, assoc=4)
        for line in range(1000):
            c.access(line, line % 3 == 0)
        sets, _ = c.snapshot_sets()
        assert sum(map(len, sets)) <= c.n_sets * c.assoc

    def test_distinct_sets_do_not_interfere(self):
        c = make_cache(size=2 * 64 * 4, assoc=2)
        for line in range(c.n_sets):
            c.access(line, False)
        assert all(line in c for line in range(c.n_sets))


class TestPrimitives:
    def test_insert_returns_victim(self):
        c = make_cache(size=2 * 64 * 4, assoc=2)
        n = c.n_sets
        assert c.insert(0, 3) is None
        assert c.insert(n, 2) is None
        victim = c.insert(2 * n, 1)
        assert victim == (0, 3)

    def test_insert_existing_updates_state(self):
        c = make_cache()
        c.insert(7, 1)
        assert c.insert(7, 2) is None
        assert c.lookup(7) == 2

    def test_set_state_requires_residency(self):
        c = make_cache()
        with pytest.raises(KeyError):
            c.set_state(9, 1)

    def test_invalidate_returns_state(self):
        c = make_cache()
        c.insert(3, 5)
        assert c.invalidate(3) == 5
        assert c.invalidate(3) is None
        assert 3 not in c

    def test_touch_moves_to_mru(self):
        c = make_cache(size=2 * 64 * 4, assoc=2)
        n = c.n_sets
        c.insert(0, 0)
        c.insert(n, 0)
        c.touch(0)
        victim = c.insert(2 * n, 0)
        assert victim[0] == n

    def test_lookup_does_not_count_stats(self):
        c = make_cache()
        c.lookup(1)
        assert c.stats.accesses == 0


class TestStats:
    def test_rates(self):
        s = CacheStats(hits=3, misses=1)
        assert s.accesses == 4
        assert s.miss_rate == 0.25

    def test_rates_empty(self):
        s = CacheStats()
        assert s.miss_rate == 0.0
