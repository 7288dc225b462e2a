"""Tests for the TPC-H-like workload: query correctness and traces."""

import random

import pytest

from repro.workloads.tpch import QUERIES, TpchDatabase
from tests.trace_events import icounts, regions

SCALE = 0.02


@pytest.fixture(scope="module")
def tpch():
    return TpchDatabase(scale=SCALE, seed=13)


def lineitem_rows(tpch, lo, hi):
    return [tpch.lineitem.get(i) for i in range(lo, hi)]


class TestGeneration:
    def test_dimensions(self, tpch):
        assert tpch.n_orders == tpch.n_lineitem // 4
        assert tpch.n_partsupp == tpch.n_parts * 4

    def test_rows_deterministic(self, tpch):
        assert tpch.lineitem.get(123) == tpch.lineitem.get(123)
        other = TpchDatabase(scale=SCALE, seed=13)
        assert other.lineitem.get(123) == tpch.lineitem.get(123)

    def test_row_domains(self, tpch):
        for rid in range(0, 500, 7):
            row = tpch.lineitem.get(rid)
            assert row[0] == rid // 4                 # orderkey
            assert 0 <= row[1] < tpch.n_parts         # partkey
            assert 1 <= row[3] <= 50                  # quantity
            assert 0.0 <= row[5] <= 0.10              # discount
            assert 0 <= row[9] < 2556                 # shipdate

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            TpchDatabase(scale=0)


class TestBlockGenerators:
    """The page-granular ``_*_block`` bulk generators must stay
    row-for-row identical to their per-rid ``_*_row`` sources — the
    fused scan drains build pages with the former, ``get()`` serves
    point lookups with the latter."""

    TABLES = ("lineitem", "orders", "customer", "part", "partsupp")

    @pytest.mark.parametrize("table", TABLES)
    def test_block_matches_per_rid_rows(self, tpch, table):
        n_rows = getattr(tpch, {
            "lineitem": "n_lineitem", "orders": "n_orders",
            "customer": "n_customers", "part": "n_parts",
            "partsupp": "n_partsupp"}[table])
        block = getattr(tpch, f"_{table}_block")
        row = getattr(tpch, f"_{table}_row")
        # Head, an interior page, and the ragged tail.
        spans = [(0, min(128, n_rows)),
                 (n_rows // 2, min(n_rows // 2 + 128, n_rows)),
                 (max(0, n_rows - 37), n_rows)]
        for lo, hi in spans:
            assert block(lo, hi) == [row(rid) for rid in range(lo, hi)]

    def test_heap_pages_serve_block_rows(self, tpch):
        """A page read off the heap equals the per-rid get() view."""
        cap = tpch.lineitem.format.capacity
        got = tpch.lineitem.page_rows(1)
        assert got == lineitem_rows(tpch, cap, 2 * cap)


class TestQueriesMatchNaive:
    def test_q1_matches_naive(self, tpch):
        sess = tpch.db.session("q1", traced=False)
        rng = random.Random(1)
        out = tpch.q1(sess, rng, 0, 3000)
        # Recompute with the same window/cutoff drawn from an equal rng.
        rng2 = random.Random(1)
        cutoff = 2450 + rng2.randrange(60)
        lo, hi = tpch._window(rng2, 0, 3000, tpch.q1_window_rows)
        rows = [r for r in lineitem_rows(tpch, lo, hi) if r[9] <= cutoff]
        expected_counts = {}
        for r in rows:
            k = (r[7], r[8])
            expected_counts[k] = expected_counts.get(k, 0) + 1
        got = {(r[0], r[1]): r[-1] for r in out}
        assert got == expected_counts

    def test_q6_matches_naive(self, tpch):
        sess = tpch.db.session("q6", traced=False)
        rng = random.Random(2)
        out = tpch.q6(sess, rng, 0, 3000)
        rng2 = random.Random(2)
        year_lo = rng2.randrange(5) * 365
        disc = 0.02 + rng2.randrange(7) / 100.0
        lo, hi = tpch._window(rng2, 0, 3000, tpch.q6_window_rows)
        expect = sum(
            r[4] * r[5] for r in lineitem_rows(tpch, lo, hi)
            if year_lo <= r[9] < year_lo + 365
            and disc - 0.011 <= r[5] <= disc + 0.011 and r[3] < 24
        )
        assert out[0][0] == pytest.approx(expect)

    def test_q13_distribution_sums_to_matched_customers(self, tpch):
        sess = tpch.db.session("q13", traced=False)
        rng = random.Random(3)
        out = tpch.q13(sess, rng, 0, tpch.n_orders)
        rng2 = random.Random(3)
        seg = rng2.randrange(5)
        o_lo, o_hi = tpch._window(rng2, 0, tpch.n_orders,
                                  tpch.join_window_rows)
        matched = set()
        for rid in range(o_lo, o_hi):
            ck = tpch.orders.get(rid)[1]
            if tpch.customer.get(ck)[3] == seg:
                matched.add(ck)
        assert sum(count for _, count in out) == len(matched)

    def test_q16_counts_match_naive(self, tpch):
        sess = tpch.db.session("q16", traced=False)
        rng = random.Random(4)
        out = tpch.q16(sess, rng, 0, tpch.n_partsupp)
        rng2 = random.Random(4)
        brand = rng2.randrange(25)
        size_set = {rng2.randrange(1, 51) for _ in range(8)}
        ps_lo, ps_hi = tpch._window(rng2, 0, tpch.n_partsupp,
                                    tpch.join_window_rows)
        expected = {}
        for rid in range(ps_lo, ps_hi):
            pk = tpch.partsupp.get(rid)[0]
            p = tpch.part.get(pk)
            if p[1] != brand and p[3] in size_set:
                key = (p[1], p[2], p[3])
                expected[key] = expected.get(key, 0) + 1
        got = {(r[0], r[1], r[2]): r[3] for r in out}
        assert got == expected


class TestWindowsAndChunks:
    def test_window_within_bounds(self, tpch):
        rng = random.Random(8)
        for _ in range(100):
            lo, hi = tpch._window(rng, 1000, 5000, 700)
            assert 1000 <= lo < hi <= 5000
            assert hi - lo == 700

    def test_window_clamps_to_span(self, tpch):
        rng = random.Random(8)
        lo, hi = tpch._window(rng, 0, 100, 700)
        assert (lo, hi) == (0, 100)

    def test_window_positions_quantized(self, tpch):
        rng = random.Random(8)
        starts = {tpch._window(rng, 0, 100_000, 1000)[0]
                  for _ in range(200)}
        assert len(starts) <= tpch.WINDOW_POSITIONS

    def test_chunks_partition_table(self, tpch):
        n = tpch.n_lineitem
        covered = []
        for c in range(4):
            lo, hi = tpch.chunk(n, c, 4)
            covered.append((lo, hi))
        assert covered[0][0] == 0
        assert covered[-1][1] == n
        for (a_lo, a_hi), (b_lo, b_hi) in zip(covered, covered[1:]):
            assert a_hi == b_lo

    def test_chunk_ownership_wraps(self, tpch):
        assert tpch.chunk(1000, 5, 4) == tpch.chunk(1000, 1, 4)


class TestTraces:
    def test_rotation_varies_query_order(self):
        tpch = TpchDatabase(scale=SCALE, seed=14)
        t0 = tpch.run_client(0, 4)
        t1 = tpch.run_client(1, 4)
        # Different rotations: first code regions differ between clients.
        assert regions(t0)[:50] != regions(t1)[:50]

    def test_trace_covers_all_queries(self):
        tpch = TpchDatabase(scale=SCALE, seed=14)
        tr = tpch.run_client(2, 4, queries=QUERIES)
        names = {fp.name for fp in tr.footprints}
        assert {"exec.seqscan", "exec.hashjoin", "exec.aggregate"} <= names

    def test_repeats_lengthen_trace(self):
        tpch = TpchDatabase(scale=SCALE, seed=14)
        one = tpch.run_client(3, 4, repeats=1)
        tpch2 = TpchDatabase(scale=SCALE, seed=14)
        two = tpch2.run_client(3, 4, repeats=2)
        assert len(two) > 1.5 * len(one)

    def test_deterministic(self):
        a = TpchDatabase(scale=SCALE, seed=15).run_client(1, 4)
        b = TpchDatabase(scale=SCALE, seed=15).run_client(1, 4)
        assert list(a.addrs) == list(b.addrs)
        assert icounts(a) == icounts(b)
