"""Unit tests for the MESI private-L2 SMP hierarchy."""

import pytest

from repro.simulator.coherence import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    PrivateL2Hierarchy,
)
from repro.simulator.hierarchy import COH, L1, L2, MEM, HierarchyParams


def make_smp(n=4, l2_kb=256):
    params = HierarchyParams(
        n_cores=n,
        l1d_kb=16,
        l2_mb=l2_kb / 1024,
        l2_nominal_mb=4.0,
        l2_latency=12,
    )
    return PrivateL2Hierarchy(params)


ADDR = 0x4000_0000


def directory_state(h, addr):
    """``(sharer_mask, dirty_owner)`` of the directory entry for ``addr``."""
    line = addr >> 6
    return h._sharers.get(line, 0), h._owner.get(line)


class TestReadPath:
    def test_cold_read_goes_to_memory_exclusive(self):
        h = make_smp()
        lat, level = h.data_access(0, ADDR, False, 0)
        assert level == MEM
        assert h.l2_caches[0].lookup(ADDR >> 6) == EXCLUSIVE

    def test_second_read_same_node_hits_l1(self):
        h = make_smp()
        h.data_access(0, ADDR, False, 0)
        lat, level = h.data_access(0, ADDR, False, 0)
        assert level == L1

    def test_clean_remote_copy_read_from_memory_shared(self):
        h = make_smp()
        h.data_access(0, ADDR, False, 0)
        lat, level = h.data_access(1, ADDR, False, 0)
        assert level == MEM
        assert h.l2_caches[1].lookup(ADDR >> 6) == SHARED
        mask, owner = directory_state(h, ADDR)
        assert mask == 0b11 and owner is None

    def test_dirty_remote_read_is_coherence_transfer(self):
        h = make_smp()
        h.data_access(0, ADDR, True, 0)  # node 0 owns M
        lat, level = h.data_access(1, ADDR, False, 0)
        assert level == COH
        assert lat == h.params.coherence_latency
        # Owner downgraded to SHARED; requester has SHARED.
        assert h.l2_caches[0].lookup(ADDR >> 6) == SHARED
        assert h.l2_caches[1].lookup(ADDR >> 6) == SHARED
        _, owner = directory_state(h, ADDR)
        assert owner is None


class TestWritePath:
    def test_cold_write_installs_modified(self):
        h = make_smp()
        lat, level = h.data_access(0, ADDR, True, 0)
        assert level == MEM
        assert h.l2_caches[0].lookup(ADDR >> 6) == MODIFIED
        _, owner = directory_state(h, ADDR)
        assert owner == 0

    def test_write_to_shared_upgrades_and_invalidates(self):
        h = make_smp()
        h.data_access(0, ADDR, False, 0)
        h.data_access(1, ADDR, False, 0)  # both SHARED
        lat, level = h.data_access(0, ADDR, True, 0)
        assert level == COH
        assert lat == h.params.upgrade_latency
        assert h.l2_caches[0].lookup(ADDR >> 6) == MODIFIED
        assert h.l2_caches[1].lookup(ADDR >> 6) is None
        mask, owner = directory_state(h, ADDR)
        assert mask == 0b1 and owner == 0

    def test_write_to_dirty_remote_transfers_and_invalidates(self):
        h = make_smp()
        h.data_access(0, ADDR, True, 0)
        lat, level = h.data_access(1, ADDR, True, 0)
        assert level == COH
        assert lat == h.params.coherence_latency
        assert h.l2_caches[0].lookup(ADDR >> 6) is None
        assert h.l2_caches[1].lookup(ADDR >> 6) == MODIFIED
        mask, owner = directory_state(h, ADDR)
        assert mask == 0b10 and owner == 1

    def test_exclusive_silent_upgrade_on_l1_write_hit(self):
        h = make_smp()
        h.data_access(0, ADDR, False, 0)  # E in node 0, also in L1
        lat, level = h.data_access(0, ADDR, True, 0)  # L1 write hit
        assert level == L1
        assert h.l2_caches[0].lookup(ADDR >> 6) == MODIFIED

    def test_writes_count_coherence_misses(self):
        h = make_smp()
        h.data_access(0, ADDR, True, 0)
        h.data_access(1, ADDR, True, 0)
        assert h.stats.coherence_misses == 1


class TestPingPong:
    def test_alternating_writers_always_pay_coherence(self):
        h = make_smp()
        h.data_access(0, ADDR, True, 0)
        levels = []
        for i in range(1, 9):
            node = i % 2
            _, level = h.data_access(node, ADDR, True, 0)
            levels.append(level)
        assert all(lv == COH for lv in levels)

    def test_read_sharing_is_cheap_after_first_transfer(self):
        h = make_smp()
        h.data_access(0, ADDR, True, 0)
        h.data_access(1, ADDR, False, 0)  # COH transfer, both now S
        _, level0 = h.data_access(0, ADDR, False, 0)
        _, level1 = h.data_access(1, ADDR, False, 0)
        assert level0 == L1 and level1 == L1


class TestDirectoryConsistency:
    def test_eviction_clears_directory(self):
        h = make_smp(l2_kb=16)  # tiny L2 to force evictions
        l2 = h.l2_caches[0]
        capacity = l2.n_sets * l2.assoc
        for i in range(capacity * 3):
            h.data_access(0, ADDR + i * 64 * l2.n_sets, False, 0)
        # Every directory entry for node 0 must correspond to a resident line.
        for line, mask in list(h._sharers.items()):
            if mask & 1:
                assert l2.lookup(line) is not None

    def test_l2_hit_after_l1_eviction(self):
        h = make_smp()
        h.data_access(0, ADDR, False, 0)
        l1 = h._l1d[0]
        l1.invalidate(ADDR >> 6)
        lat, level = h.data_access(0, ADDR, False, 0)
        assert level == L2
        assert lat == h.l2_latency

    def test_invariant_single_owner(self):
        h = make_smp()
        import random

        rng = random.Random(7)
        lines = [ADDR + i * 64 for i in range(32)]
        for _ in range(2000):
            node = rng.randrange(4)
            addr = rng.choice(lines)
            h.data_access(node, addr, rng.random() < 0.4, 0)
        for line, owner in h._owner.items():
            assert h.l2_caches[owner].lookup(line) == MODIFIED
            # No other node may hold a copy of a modified line.
            mask = h._sharers.get(line, 0)
            assert mask == (1 << owner)
