"""Tests for the staged-execution extension."""

import pytest

from repro.db.engine import Database
from repro.staged import (
    BatchBuffer,
    BufferRing,
    CohortScheduler,
    Router,
)
from repro.simulator.addresses import AddressSpace
from repro.simulator.trace import FLAG_WRITE
from repro.workloads.tpch import TpchDatabase
from tests.trace_events import flags


class TestBatchBuffer:
    def test_slot_addresses_are_contiguous(self):
        buf = BatchBuffer(AddressSpace(), "b", 16)
        assert buf.slot_addr(1) - buf.slot_addr(0) == 32

    def test_slot_bounds(self):
        buf = BatchBuffer(AddressSpace(), "b", 4)
        with pytest.raises(IndexError):
            buf.slot_addr(4)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BatchBuffer(AddressSpace(), "b", 0)

    def test_ring_rotates(self):
        ring = BufferRing(AddressSpace(), "r", 8, depth=2)
        a = ring.acquire()
        b = ring.acquire()
        c = ring.acquire()
        assert a is not b
        assert c is a  # depth-2 double buffering


class TestScheduler:
    def _tpch(self):
        return TpchDatabase(scale=0.02, seed=3)

    def _iterator_q1(self, tpch, lo, hi, cutoff):
        """Reference result via the plain operator pipeline."""
        sess = tpch.db.session("ref", traced=False)
        from repro.db.exec import AggSpec, Filter, HashAggregate, SeqScan

        scan = SeqScan(sess.ctx, tpch.lineitem, start=lo, stop=hi)
        filt = Filter(sess.ctx, scan, lambda r: r[9] <= cutoff)
        agg = HashAggregate(
            sess.ctx, filt, lambda r: (r[7], r[8]),
            [AggSpec("sum", lambda r: r[4] * (1 - r[5]), "s")],
        )
        return {(row[0], row[1]): row[2] for row in agg.execute()}

    def test_cohort_results_match_iterator_model(self):
        tpch = self._tpch()
        router = Router(tpch.db)
        producer = tpch.db.session("staged-p")
        out = router.q1_pipeline(tpch, producer, None, 0, 2000, cutoff=1200)
        expected = self._iterator_q1(tpch, 0, 2000, 1200)
        got = {k: v for k, v in out.results}
        assert got.keys() == expected.keys()
        for k in expected:
            assert got[k] == pytest.approx(expected[k])

    def test_spread_results_match_cohort(self):
        tpch = self._tpch()
        router = Router(tpch.db)
        cohort = router.q1_pipeline(
            tpch, tpch.db.session("p1"), None, 0, 1500, cutoff=1000)
        spread = router.q1_pipeline(
            tpch, tpch.db.session("p2"), tpch.db.session("c2"),
            0, 1500, cutoff=1000)
        assert dict(cohort.results) == dict(spread.results)

    def test_cohort_single_trace_spread_two(self):
        tpch = self._tpch()
        router = Router(tpch.db)
        cohort = router.q1_pipeline(
            tpch, tpch.db.session("p3"), None, 0, 800, cutoff=1000)
        spread = router.q1_pipeline(
            tpch, tpch.db.session("p4"), tpch.db.session("c4"),
            0, 800, cutoff=1000)
        assert len(cohort.traces) == 1
        assert len(spread.traces) == 2

    def test_spread_consumer_rereads_batches(self):
        """The remote consumer's trace must reference the batch buffers the
        producer wrote; the cohort consumer's must not re-read them."""
        tpch = self._tpch()
        router = Router(tpch.db)
        spread = router.q1_pipeline(
            tpch, tpch.db.session("p5"), tpch.db.session("c5"),
            0, 800, cutoff=2600)
        producer_trace, consumer_trace = spread.traces
        written = {
            a >> 6 for a, f in zip(producer_trace.addrs, flags(producer_trace))
            if f & FLAG_WRITE
        }
        consumer_reads = {a >> 6 for a in consumer_trace.addrs}
        assert written & consumer_reads, "consumer never touched the batches"

    def test_packets_scale_with_batch_size(self):
        tpch = self._tpch()
        small = CohortScheduler(tpch.db, batch_bytes=1024)
        large = CohortScheduler(tpch.db, batch_bytes=8192)
        assert small.batch_rows * 8 == large.batch_rows

    def test_batch_bytes_validated(self):
        with pytest.raises(ValueError):
            CohortScheduler(Database(), batch_bytes=0)

    def test_router_stats_accumulate(self):
        tpch = self._tpch()
        router = Router(tpch.db)
        router.q1_pipeline(tpch, tpch.db.session("p6"), None, 0, 500,
                           cutoff=2600)
        assert router.stats["scan"].tuples_out == 500
        assert router.stats["filter"].tuples_in == 500
        assert router.stats["agg"].tuples_in == 500  # cutoff keeps all
