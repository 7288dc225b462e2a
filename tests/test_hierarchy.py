"""Unit tests for the shared-L2 CMP hierarchy."""

import pytest

from repro.simulator.cache import CLEAN
from repro.simulator.cacti import l2_hit_latency
from repro.simulator.hierarchy import (
    L1,
    L1X,
    L2,
    MEM,
    HierarchyParams,
    SharedL2Hierarchy,
    _CodePressure,
)
from repro.simulator.trace import FLAG_WRITE
from tests.trace_events import trace_from_events, warm_columns

COLD = 0x4000_0000


def make(n_cores=2, l2_mb=1.0, **kw):
    return SharedL2Hierarchy(HierarchyParams(
        n_cores=n_cores, l2_mb=l2_mb, l2_nominal_mb=l2_mb, **kw))


class TestDataPath:
    def test_cold_miss_goes_to_memory(self):
        h = make()
        lat, level = h.data_access(0, COLD, False, 0.0)
        assert level == MEM
        assert lat >= h.params.mem_latency

    def test_second_access_hits_l1(self):
        h = make()
        h.data_access(0, COLD, False, 0.0)
        lat, level = h.data_access(0, COLD, False, 0.0)
        assert level == L1
        assert lat == h.params.l1_latency

    def test_l1_evicted_line_hits_l2(self):
        h = make()
        h.data_access(0, COLD, False, 0.0)
        h._l1d[0].invalidate(COLD >> 6)
        lat, level = h.data_access(0, COLD, False, 0.0)
        assert level == L2
        assert lat >= h.l2_latency

    def test_clean_sibling_copy_served_by_l2(self):
        """A clean line in another core's L1 is an L2 hit, not a transfer."""
        h = make()
        h.data_access(0, COLD, False, 0.0)
        lat, level = h.data_access(1, COLD, False, 0.0)
        assert level == L2

    def test_dirty_sibling_copy_is_l1_transfer(self):
        h = make()
        h.data_access(0, COLD, True, 0.0)  # dirty in core 0's L1
        lat, level = h.data_access(1, COLD, False, 0.0)
        assert level == L1X
        assert lat == h.params.l1_transfer_latency

    def test_write_invalidates_sibling_copies(self):
        h = make()
        h.data_access(0, COLD, True, 0.0)
        h.data_access(1, COLD, True, 0.0)  # transfer + invalidate core 0
        assert (COLD >> 6) not in h._l1d[0]

    def test_latency_derived_from_cacti(self):
        h = make(l2_mb=16.0)
        assert h.l2_latency == l2_hit_latency(16.0)

    def test_const_latency_override(self):
        h = make(l2_latency=4)
        assert h.l2_latency == 4

    def test_level_counters_sum_to_accesses(self):
        import random
        h = make()
        rng = random.Random(5)
        for _ in range(500):
            h.data_access(rng.randrange(2),
                          COLD + rng.randrange(1 << 22) // 64 * 64,
                          rng.random() < 0.3, 0.0)
        assert sum(h.stats.data_level_counts) == h.stats.data_accesses == 500


class TestBankQueueing:
    def test_same_bank_back_to_back_queues(self):
        h = make()
        line = COLD >> 6
        h.l2.access(line, False)  # make it an L2 hit
        h._l1d[0].invalidate(line)
        lat1, _ = h.data_access(0, COLD, False, 100.0)
        h._l1d[0].invalidate(line)
        lat2, _ = h.data_access(0, COLD, False, 100.0)
        assert lat2 > lat1  # second access waits for the bank
        assert h.stats.l2_queued_accesses == 1

    def test_different_banks_do_not_queue(self):
        h = make()
        a, b = COLD, COLD + 64  # adjacent lines -> different banks
        for addr in (a, b):
            h.l2.access(addr >> 6, False)
        lat1, _ = h.data_access(0, a, False, 100.0)
        lat2, _ = h.data_access(1, b, False, 100.0)
        assert lat2 == lat1
        assert h.stats.l2_queue_delay == 0

    def test_bank_frees_over_time(self):
        h = make()
        line = COLD >> 6
        h.l2.access(line, False)
        h._l1d[0].invalidate(line)
        h.data_access(0, COLD, False, 100.0)
        h._l1d[0].invalidate(line)
        lat, _ = h.data_access(0, COLD, False, 500.0)  # long after
        assert lat == h.l2_latency


class TestInstructionPath:
    FP = (0x100000, 64)  # base, lines (4KB region)

    def test_small_footprint_never_stalls(self):
        h = make()
        total = 0
        for _ in range(50):
            exposed, level = h.instr_block(0, self.FP[0], 32, 2, True, 0.0)
            total += exposed
        # 32 lines fit the 32KB L1I: only cheap jump bubbles.
        assert total <= 50 * h.params.jump_bubble_cycles

    def test_thrashing_footprint_pays_l2(self):
        h = make()
        # Alternate among many large regions: far beyond L1I capacity.
        regions = [(0x100000 + i * 0x10000, 256) for i in range(8)]
        exposed = 0
        for i in range(200):
            base, lines = regions[i % len(regions)]
            e, _ = h.instr_block(0, base, lines, 2, True, 0.0)
            exposed += e
        assert exposed > 200 * h.params.jump_bubble_cycles

    def test_disabling_stream_buffers_raises_sequential_cost(self):
        on = make()
        off = make(stream_buffers=False)
        regions = [(0x100000 + i * 0x10000, 256) for i in range(8)]
        totals = {}
        for label, h in (("on", on), ("off", off)):
            t = 0
            for i in range(200):
                base, lines = regions[i % len(regions)]
                e, _ = h.instr_block(0, base, lines, 8, i % 4 == 0, 0.0)
                t += e
            totals[label] = t
        assert totals["off"] > totals["on"]


class TestStridePrefetch:
    def test_streaming_misses_become_l2_class(self):
        h = make(stride_prefetch=True, l2_mb=0.25)
        base = COLD
        levels = []
        for i in range(64):
            lat, level = h.data_access(0, base + i * 64, False, 0.0)
            levels.append(level)
        # After the detector locks on, misses are covered at L2 cost.
        assert MEM in levels[:3]
        assert levels[-1] == L2
        assert h.stats.prefetch_covered > 40

    def test_random_pattern_gets_no_coverage(self):
        import random
        h = make(stride_prefetch=True, l2_mb=0.25)
        rng = random.Random(9)
        for _ in range(200):
            h.data_access(0, COLD + rng.randrange(1 << 24) // 64 * 64,
                          False, 0.0)
        assert h.stats.prefetch_covered < 5


class TestCodePressure:
    def test_within_capacity_no_eviction(self):
        cp = _CodePressure(100)
        assert cp.touch(0x1000, 40) == 0.0
        assert cp.touch(0x2000, 40) == 0.0

    def test_over_capacity_fraction(self):
        cp = _CodePressure(100)
        cp.touch(0x1000, 100)
        frac = cp.touch(0x2000, 100)
        assert frac == pytest.approx(0.5)

    def test_retouch_refreshes_not_grows(self):
        cp = _CodePressure(100)
        cp.touch(0x1000, 60)
        cp.touch(0x1000, 60)
        assert cp.touch(0x2000, 30) == 0.0  # total 90 <= 100

    def test_old_regions_expire(self):
        cp = _CodePressure(10)
        for i in range(20):
            cp.touch(0x1000 + i * 0x100, 10)
        # Window is bounded at 4x capacity.
        assert cp.touch(0x9000, 1) <= 1.0 - 10 / 41


class TestL2BanksValidation:
    def test_powers_of_two_accepted(self):
        for banks in (1, 2, 4, 8, 64):
            h = make(l2_banks=banks)
            assert h.params.l2_banks == banks

    def test_zero_rejected(self):
        # 0 & -1 == 0, so a plain mask test would let it through.
        with pytest.raises(ValueError, match="power of two"):
            make(l2_banks=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            make(l2_banks=-4)

    def test_non_power_of_two_rejected(self):
        for banks in (3, 6, 12, 100):
            with pytest.raises(ValueError, match="power of two"):
                make(l2_banks=banks)

    def test_non_int_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            make(l2_banks=4.0)


def _random_pattern(seed, n=600, cores=2):
    import random
    rng = random.Random(seed)
    return [(rng.randrange(cores),
             COLD + rng.randrange(1 << 20) // 64 * 64,
             rng.random() < 0.4) for _ in range(n)]


def _set_pairs(snapshot):
    """Per-set ``(line, state)`` pairs in LRU order from a cache's
    ``(sets, states)`` pair (a resident line missing from ``states`` is
    clean)."""
    sets, states = snapshot
    return [[(line, states.get(line, CLEAN)) for line in s] for s in sets]


def _l1_state(h):
    """Full L1 state including LRU order."""
    return [_set_pairs((cache._sets, cache._states)) for cache in h._l1d]


def _l2_state(h):
    return _set_pairs((h.l2._sets, h.l2._states))


def _warm_data(h, core, addr, write):
    """Reference warm-up of one reference, one state transition at a
    time: the L1 access, the owner map (victim drop, write-invalidation
    of sibling copies) and the L2 access, with no timing."""
    line = addr >> 6 | h._line_tag[core]
    hit, victim = h._l1d[core].access(line, write)
    if hit:
        return
    owners = h._l1_owners
    bit = 1 << core
    if victim is not None:
        vmask = owners.get(victim[0], 0) & ~bit
        if vmask:
            owners[victim[0]] = vmask
        else:
            owners.pop(victim[0], None)
    sibling_mask = owners.get(line, 0) & ~bit
    if write and sibling_mask:
        for other in range(h.params.n_cores):
            if sibling_mask >> other & 1:
                h._l1d[other].invalidate(line)
        owners[line] = bit
    else:
        owners[line] = owners.get(line, 0) | bit
    h.l2.access(line, write)


def _warm_blocks(h, pattern, columns=None):
    """Feed ``warm_block`` per-core runs exactly as Machine._warm does,
    from ``columns`` (``(addrs, kinds, writes)``; by default a built
    trace's)."""
    if columns is None:
        columns = warm_columns(pattern)
    i = 0
    while i < len(pattern):
        j = i
        core = pattern[i][0]
        while j < len(pattern) and pattern[j][0] == core:
            j += 1
        h.warm_block(core, *columns, i, j)
        i = j


class TestWarm:
    def test_warm_matches_access_state(self):
        """Functional warming leaves the same cache state as timed access."""
        import random
        rng = random.Random(3)
        pattern = [(rng.randrange(2), COLD + rng.randrange(1 << 20) // 64 * 64,
                    rng.random() < 0.4) for _ in range(400)]
        a, b = make(), make()
        for core, addr, wr in pattern:
            a.data_access(core, addr, wr, 0.0)
        _warm_blocks(b, pattern)
        for line in {addr >> 6 for _, addr, _ in pattern}:
            assert (line in a.l2) == (line in b.l2)
            for c in range(2):
                assert ((line in a._l1d[c])
                        == (line in b._l1d[c]))

    def test_warm_block_matches_warm_data_exactly(self):
        """The batched warm loop lands byte-for-byte where the
        per-reference reference walk does.

        Compares full per-set contents *in LRU order*,
        the owner map, and the L2 — not just membership — because the
        measured phase's victim choices depend on that order.
        """
        pattern = _random_pattern(11)
        a, b = make(), make()
        for core, addr, wr in pattern:
            _warm_data(a, core, addr, wr)
        _warm_blocks(b, pattern)
        assert _l1_state(a) == _l1_state(b)
        assert _l2_state(a) == _l2_state(b)
        assert a._l1_owners == b._l1_owners

    def test_capture_restore_replays_identically(self):
        """A captured warm state restored onto a fresh hierarchy matches
        the original: L1 sets (with LRU order), owners, and the L2 —
        the warm-memo fast path in Machine._warm relies on this."""
        pattern = _random_pattern(12)
        a = make()
        a.begin_warm_log()
        _warm_blocks(a, pattern)
        state = a.capture_warm_state()
        b = make()
        b.restore_warm_state(state)
        assert _l1_state(a) == _l1_state(b)
        assert _l2_state(a) == _l2_state(b)
        assert a._l1_owners == b._l1_owners

    @pytest.mark.parametrize("high,typecode", [(0, "I"), (1 << 40, "Q")],
                             ids=["study", "64-bit"])
    def test_log_width_follows_lines(self, high, typecode):
        """The log is frozen as ``array('I')`` when every packed line fits
        in 32 bits (every study trace, built through TraceBuilder) and as
        ``array('Q')`` for 64-bit addresses (a ``trace_from_events``
        trace); either restores to the state a fresh warm walk leaves."""
        pattern = [(c, high + a, w) for c, a, w in _random_pattern(15)]
        columns = None
        if high:
            tr = trace_from_events(
                "wide", [(1, a, FLAG_WRITE if w else 0, 0)
                         for _, a, w in pattern], [])
            columns = (tr.addrs, tr.kinds,
                       bytes(f & FLAG_WRITE for _, f, _ in tr.events))
        a = make()
        a.begin_warm_log()
        _warm_blocks(a, pattern, columns)
        state = a.capture_warm_state()
        assert state[2].typecode == typecode
        fresh = make()
        for core, addr, wr in pattern:
            _warm_data(fresh, core, addr, wr)
        b = make()
        b.restore_warm_state(state)
        assert _l1_state(b) == _l1_state(fresh)
        assert _l2_state(b) == _l2_state(fresh)
        assert b._l1_owners == fresh._l1_owners

    def test_restore_does_not_alias_captured_state(self):
        """Mutating a restored hierarchy must not corrupt the memo entry."""
        pattern = _random_pattern(13, n=200)
        a = make()
        a.begin_warm_log()
        a.warm_block(0, *warm_columns(pattern), 0, len(pattern))
        state = a.capture_warm_state()
        b = make()
        b.restore_warm_state(state)
        before = _set_pairs(state[0][0])
        for core, addr, wr in _random_pattern(14, n=200):
            b.data_access(core, addr, wr, 0.0)
        assert _set_pairs(state[0][0]) == before
