"""Edge-path tests: behaviours only exercised under unusual conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Schema
from repro.db.buffer import BufferPool
from repro.db.exec import SeqScan
from repro.db.heap import HeapFile
from repro.db.types import int64
from repro.simulator.addresses import AddressSpace


class TestBufferClockCompaction:
    def test_clock_ring_stays_bounded_under_churn(self):
        """Thousands of install/evict cycles must not grow the clock ring
        unboundedly (the compaction path)."""
        space = AddressSpace()
        heap = HeapFile(space, Schema("t", [int64("x")]), "t",
                        n_virtual_rows=10_000_000, row_source=lambda r: (r,))
        pool = BufferPool(space, capacity_pages=8)
        for p in range(2000):
            pool.fetch(heap, p)
        assert pool.stats.installs - pool.stats.evictions <= 8
        assert len(pool._clock) <= 4 * 8 + 8  # compaction bound
        assert pool.stats.evictions >= 1990


class TestSeqScanEdges:
    def test_scan_empty_table(self):
        db = Database()
        heap = db.catalog.create_table(Schema("e", [int64("x")]))
        ctx = db.session("c", traced=False).ctx
        assert SeqScan(ctx, heap).execute() == []

    def test_scan_range_clamped_to_table(self):
        db = Database()
        heap = db.catalog.create_table(Schema("t", [int64("x")]))
        for i in range(10):
            heap.append((i,))
        ctx = db.session("c", traced=False).ctx
        assert len(SeqScan(ctx, heap, start=5, stop=500).execute()) == 5


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(-100, 100)),
                max_size=60))
def test_virtual_overlay_property(updates):
    """Property: a virtual heap with overlay updates equals a dict view
    over (generator, updates)."""
    heap = HeapFile(AddressSpace(), Schema("t", [int64("r"), int64("v")]),
                    "t", n_virtual_rows=501, row_source=lambda r: (r, r))
    reference = {}
    for rid, val in updates:
        heap.set_field(rid, 1, val)
        reference[rid] = val
    for rid in range(0, 501, 13):
        expect = (rid, reference.get(rid, rid))
        assert heap.get(rid) == expect
