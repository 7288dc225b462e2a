"""TPC-H-like DSS workload: schema, data, and the paper's four queries.

The paper runs TPC-H queries 1, 6, 13 and 16 on a 1 GB database with 16
concurrent clients and random predicates: "Queries 1, 6 are scan-dominated,
Query 16 is join-dominated and Query 13 exhibits mixed behavior."  The
analogs here preserve exactly that operator mix:

- **Q1**: scan lineitem, filter by ship date, group by (returnflag,
  linestatus) with sum/avg/count aggregates — scan-dominated, tiny group
  table (hot accumulators).
- **Q6**: scan lineitem, multi-term filter, single sum — pure scan.
- **Q13**: customer ⋈ orders, orders-per-customer distribution — mixed
  scan/join/aggregate with a high-cardinality group table.
- **Q16**: part ⋈ partsupp with a negated brand filter, group by
  (brand, type, size) — join-dominated.

Saturated runs partition the fact tables across clients (each client scans
its own contiguous chunk, the collective covering the whole table), which
models the partitioned parallel plans of Section 6.1 while keeping traces
replayable; predicates are drawn per client from a seeded RNG ("random
predicates", Section 3).  The lineitem table is virtual: tens of nominal MB
of cold scan footprint exist as addresses only.
"""

from __future__ import annotations

import random
from functools import partial

from ..db import Database, Schema
from ..db import costs
from ..db.exec import (
    AggSpec,
    Filter,
    HashAggregate,
    HashJoin,
    SeqScan,
    StreamAggregate,
    fused,
)
from ..db.types import char, date, float64, int64

#: DSS has more ILP (tight scan loops) and fewer mispredictions than OLTP;
#: out-of-order issue extracts notably more of it than in-order issue.
DSS_ILP = 2.2
DSS_ILP_INORDER = 1.6
DSS_BRANCH_MPKI = 3.5

#: The four queries, in the paper's order.
QUERIES = ("q1", "q6", "q13", "q16")


# Accumulator bodies for the fused drains.  Each mirrors the matching
# AggSpec list's per-row updates with the identical float expressions and
# evaluation order, so results are bit-identical to the generic operators.

def _q1_update(st, r):
    q = r[3]
    p = r[4]
    d = r[5]
    st[0] += q
    st[1] += p
    st[2] += p * (1 - d)
    st[3] += p * (1 - d) * (1 + r[6])
    t, n = st[4]
    st[4] = (t + q, n + 1)
    t, n = st[5]
    st[5] = (t + d, n + 1)
    st[6] += 1


def _q6_update(st, r):
    st[0] += r[4] * r[5]
    st[1] += 1


def _count_update(st, r):
    st[0] += 1


# Row sources of the virtual tables.  Each reads only the sizes it is
# bound to with functools.partial, never the TpchDatabase: the heap file
# holds its generators, so one bound to the database would close a
# reference cycle through it (see HeapFile).

def _mix(rid: int, salt: int) -> int:
    """Deterministic per-row pseudo-random 31-bit value."""
    x = (rid * 2654435761 + salt * 40503) & 0xFFFF_FFFF
    x ^= x >> 15
    x = (x * 2246822519) & 0xFFFF_FFFF
    return (x >> 1) & 0x7FFF_FFFF


def _lineitem_row(n_parts: int, n_suppliers: int, rid: int) -> tuple:
    m = _mix(rid, 1)
    return (
        rid // 4,                      # l_orderkey
        m % n_parts,                   # l_partkey
        m % n_suppliers,               # l_suppkey
        1 + m % 50,                    # l_quantity
        900.0 + (m % 99_000) / 10.0,   # l_extendedprice
        (m % 11) / 100.0,              # l_discount: 0.00-0.10
        (m % 9) / 100.0,               # l_tax
        m % 3,                         # l_returnflag
        (m >> 4) % 2,                  # l_linestatus
        m % 2556,                      # l_shipdate: days in 1992-1998
        m % 7,                         # l_shipmode
        "lpad",
    )


def _orders_row(n_customers: int, rid: int) -> tuple:
    m = _mix(rid, 2)
    return (rid, m % n_customers, m % 2556,
            1000.0 + (m % 400_000) / 10.0, "opad")


def _customer_row(rid: int) -> tuple:
    m = _mix(rid, 3)
    return (rid, m % 25, -999.0 + (m % 19_999) / 10.0, m % 5, "cpad")


def _part_row(rid: int) -> tuple:
    m = _mix(rid, 4)
    return (rid, m % 25, m % 150, 1 + m % 50, "ppad")


def _partsupp_row(n_suppliers: int, rid: int) -> tuple:
    m = _mix(rid, 5)
    return (rid // 4, m % n_suppliers, m % 10_000,
            1.0 + (m % 1000) / 10.0)


def _supplier_row(rid: int) -> tuple:
    m = _mix(rid, 6)
    return (rid, m % 25, "spad")


# Page-granular bulk forms of the row sources, with :func:`_mix` inlined
# (salt pre-multiplied by 40503): one call builds a whole page, which is
# how the fused scan drains consume virtual tables.  Each must stay
# row-for-row identical to its per-rid counterpart
# (``tests/test_workload_tpch.py`` locks the equivalence down).

def _lineitem_block(n_parts: int, n_supp: int, start: int,
                    stop: int) -> list[tuple]:
    out = []
    app = out.append
    for rid in range(start, stop):
        x = (rid * 2654435761 + 40503) & 0xFFFF_FFFF
        x ^= x >> 15
        m = (((x * 2246822519) & 0xFFFF_FFFF) >> 1) & 0x7FFF_FFFF
        app((rid // 4, m % n_parts, m % n_supp, 1 + m % 50,
             900.0 + (m % 99_000) / 10.0, (m % 11) / 100.0,
             (m % 9) / 100.0, m % 3, (m >> 4) % 2, m % 2556, m % 7,
             "lpad"))
    return out


def _orders_block(n_cust: int, start: int, stop: int) -> list[tuple]:
    out = []
    app = out.append
    for rid in range(start, stop):
        x = (rid * 2654435761 + 81006) & 0xFFFF_FFFF
        x ^= x >> 15
        m = (((x * 2246822519) & 0xFFFF_FFFF) >> 1) & 0x7FFF_FFFF
        app((rid, m % n_cust, m % 2556,
             1000.0 + (m % 400_000) / 10.0, "opad"))
    return out


def _customer_block(start: int, stop: int) -> list[tuple]:
    out = []
    app = out.append
    for rid in range(start, stop):
        x = (rid * 2654435761 + 121509) & 0xFFFF_FFFF
        x ^= x >> 15
        m = (((x * 2246822519) & 0xFFFF_FFFF) >> 1) & 0x7FFF_FFFF
        app((rid, m % 25, -999.0 + (m % 19_999) / 10.0, m % 5, "cpad"))
    return out


def _part_block(start: int, stop: int) -> list[tuple]:
    out = []
    app = out.append
    for rid in range(start, stop):
        x = (rid * 2654435761 + 162012) & 0xFFFF_FFFF
        x ^= x >> 15
        m = (((x * 2246822519) & 0xFFFF_FFFF) >> 1) & 0x7FFF_FFFF
        app((rid, m % 25, m % 150, 1 + m % 50, "ppad"))
    return out


def _partsupp_block(n_supp: int, start: int, stop: int) -> list[tuple]:
    out = []
    app = out.append
    for rid in range(start, stop):
        x = (rid * 2654435761 + 202515) & 0xFFFF_FFFF
        x ^= x >> 15
        m = (((x * 2246822519) & 0xFFFF_FFFF) >> 1) & 0x7FFF_FFFF
        app((rid // 4, m % n_supp, m % 10_000,
             1.0 + (m % 1000) / 10.0))
    return out


class TpchDatabase:
    """A populated TPC-H-like database instance.

    Args:
        scale: Study-wide scale factor (1.0 ~ the paper's 1 GB run,
            sized so lineitem far exceeds the largest cache).
        seed: Base seed for data generation.
    """

    def __init__(self, scale: float = 1.0, seed: int = 7):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.db = Database("tpch")
        self.n_lineitem = max(4000, round(600_000 * scale))
        self.n_orders = self.n_lineitem // 4
        self.n_customers = max(300, round(15_000 * scale))
        self.n_parts = max(400, round(20_000 * scale))
        self.n_partsupp = self.n_parts * 4
        self.n_suppliers = max(20, round(1000 * scale))
        # Rows a single query execution scans: random predicates restrict
        # each run to a window of its client's chunk.  Window sizes place
        # the collective DSS working set so that the bulk is captured
        # between the paper's 8 MB and 16 MB cache points while Q6's wider
        # sweep keeps a beyond-cache residue alive at 26 MB.
        self.q1_window_rows = max(250, round(2500 * scale))
        self.q6_window_rows = max(500, round(10_000 * scale))
        self.join_window_rows = max(250, round(2500 * scale))
        self._build()

    # ------------------------------------------------------------------ #
    # Schema and generated rows                                           #
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        cat = self.db.catalog
        # The virtual tables' generators, bound to the sizes they read and
        # never to self (see the comment above _mix).
        n_parts, n_supp = self.n_parts, self.n_suppliers
        self._lineitem_row = partial(_lineitem_row, n_parts, n_supp)
        self._lineitem_block = partial(_lineitem_block, n_parts, n_supp)
        self._orders_row = partial(_orders_row, self.n_customers)
        self._orders_block = partial(_orders_block, self.n_customers)
        self._customer_row = _customer_row
        self._customer_block = _customer_block
        self._part_row = _part_row
        self._part_block = _part_block
        self._partsupp_row = partial(_partsupp_row, n_supp)
        self._partsupp_block = partial(_partsupp_block, n_supp)
        self._supplier_row = _supplier_row
        self.lineitem = cat.create_table(
            Schema("lineitem", [
                int64("l_orderkey"), int64("l_partkey"), int64("l_suppkey"),
                int64("l_quantity"), float64("l_extendedprice"),
                float64("l_discount"), float64("l_tax"),
                int64("l_returnflag"), int64("l_linestatus"),
                date("l_shipdate"), int64("l_shipmode"), char("l_pad", 16),
            ]),
            n_virtual_rows=self.n_lineitem,
            row_source=self._lineitem_row,
            row_block_source=self._lineitem_block,
        )
        self.orders = cat.create_table(
            Schema("orders", [
                int64("o_orderkey"), int64("o_custkey"), date("o_orderdate"),
                float64("o_totalprice"), char("o_pad", 20),
            ]),
            n_virtual_rows=self.n_orders,
            row_source=self._orders_row,
            row_block_source=self._orders_block,
        )
        self.customer = cat.create_table(
            Schema("customer", [
                int64("c_custkey"), int64("c_nationkey"),
                float64("c_acctbal"), int64("c_mktsegment"),
                char("c_pad", 24),
            ]),
            n_virtual_rows=self.n_customers,
            row_source=self._customer_row,
            row_block_source=self._customer_block,
        )
        self.part = cat.create_table(
            Schema("part", [
                int64("p_partkey"), int64("p_brand"), int64("p_type"),
                int64("p_size"), char("p_pad", 24),
            ]),
            n_virtual_rows=self.n_parts,
            row_source=self._part_row,
            row_block_source=self._part_block,
        )
        self.partsupp = cat.create_table(
            Schema("partsupp", [
                int64("ps_partkey"), int64("ps_suppkey"),
                int64("ps_availqty"), float64("ps_supplycost"),
            ]),
            n_virtual_rows=self.n_partsupp,
            row_source=self._partsupp_row,
            row_block_source=self._partsupp_block,
        )
        self.supplier = cat.create_table(
            Schema("supplier", [
                int64("s_suppkey"), int64("s_nationkey"), char("s_pad", 8),
            ]),
            n_virtual_rows=self.n_suppliers,
            row_source=self._supplier_row,
        )

    # ------------------------------------------------------------------ #
    # The four queries                                                    #
    # ------------------------------------------------------------------ #

    #: Distinct window positions a query's random predicate can select.
    #: Quantizing keeps repeated executions revisiting the same data (the
    #: random predicates vary, the relation does not), which is what lets
    #: larger caches capture the DSS working set (Section 5.1).
    WINDOW_POSITIONS = 4

    def _window(self, rng: random.Random, lo: int, hi: int,
                rows: int) -> tuple[int, int]:
        """A random scan window of ``rows`` inside [lo, hi)."""
        span = hi - lo
        w = min(rows, span)
        if span <= w:
            return lo, lo + w
        slot = rng.randrange(self.WINDOW_POSITIONS)
        start = lo + (span - w) * slot // (self.WINDOW_POSITIONS - 1)
        return start, start + w

    def q1(self, sess, rng: random.Random, lo: int, hi: int) -> list[tuple]:
        """Q1 analog: pricing summary over a lineitem range."""
        sess.tracer.enter("rt.parser")
        sess.tracer.compute(costs.QUERY_SETUP)
        ctx = sess.ctx
        cutoff = 2450 + rng.randrange(60)  # random DELTA predicate
        lo, hi = self._window(rng, lo, hi, self.q1_window_rows)
        pred = lambda r: r[9] <= cutoff
        key_fn = lambda r: (r[7], r[8])
        aggs = [
            AggSpec("sum", lambda r: r[3], "sum_qty"),
            AggSpec("sum", lambda r: r[4], "sum_base_price"),
            AggSpec("sum", lambda r: r[4] * (1 - r[5]), "sum_disc_price"),
            AggSpec("sum", lambda r: r[4] * (1 - r[5]) * (1 + r[6]),
                    "sum_charge"),
            AggSpec("avg", lambda r: r[3], "avg_qty"),
            AggSpec("avg", lambda r: r[5], "avg_disc"),
            AggSpec("count"),
        ]
        if fused.usable(ctx, self.lineitem):
            return fused.scan_filter_hash_agg(
                ctx, self.lineitem, lo, hi, pred, 1, (7, 8), aggs, 6,
                _q1_update,
            )
        scan = SeqScan(ctx, self.lineitem, start=lo, stop=hi)
        filt = Filter(ctx, scan, pred, n_terms=1)
        agg = HashAggregate(
            ctx, filt, key_fn, aggs,
            expected_groups=6,
        )
        return agg.execute()

    def q6(self, sess, rng: random.Random, lo: int, hi: int) -> list[tuple]:
        """Q6 analog: forecast revenue change over a lineitem range."""
        sess.tracer.enter("rt.parser")
        sess.tracer.compute(costs.QUERY_SETUP)
        ctx = sess.ctx
        year_lo = rng.randrange(5) * 365
        disc = 0.02 + rng.randrange(7) / 100.0
        lo, hi = self._window(rng, lo, hi, self.q6_window_rows)
        pred = lambda r: (year_lo <= r[9] < year_lo + 365
                          and disc - 0.011 <= r[5] <= disc + 0.011
                          and r[3] < 24)
        aggs = [
            AggSpec("sum", lambda r: r[4] * r[5], "revenue"),
            AggSpec("count"),
        ]
        if fused.usable(ctx, self.lineitem):
            return fused.scan_filter_stream_agg(
                ctx, self.lineitem, lo, hi, pred, 4, aggs, _q6_update,
            )
        scan = SeqScan(ctx, self.lineitem, start=lo, stop=hi)
        filt = Filter(ctx, scan, pred, n_terms=4)
        agg = StreamAggregate(ctx, filt, aggs)
        return agg.execute()

    def q13(self, sess, rng: random.Random, lo: int, hi: int) -> list[tuple]:
        """Q13 analog: distribution of orders per customer (mixed)."""
        sess.tracer.enter("rt.parser")
        sess.tracer.compute(costs.QUERY_SETUP)
        ctx = sess.ctx
        seg = rng.randrange(5)  # random comment-pattern stand-in
        pred = lambda r: r[3] == seg
        o_lo, o_hi = self._window(rng, lo, hi, self.join_window_rows)
        if fused.usable(ctx, self.customer, self.orders):
            return fused.scan_filter_join_agg(
                ctx, self.customer, 0, self.customer.n_rows, pred, 1, 0,
                self.orders, o_lo, o_hi, 1,
                0, [AggSpec("count")], self.n_customers,
                _count_update,
                dist=(1, [AggSpec("count")], 64, _count_update),
            )
        cust = Filter(ctx, SeqScan(ctx, self.customer), pred, n_terms=1)
        join = HashJoin(
            ctx, cust, SeqScan(ctx, self.orders, start=o_lo, stop=o_hi),
            build_key=lambda r: r[0], probe_key=lambda r: r[1],
        )
        per_customer = HashAggregate(
            ctx, join, lambda r: r[0], [AggSpec("count")],
            expected_groups=self.n_customers,
        )
        # Distribution: how many customers have k orders.
        dist = HashAggregate(
            ctx, per_customer, lambda r: r[1], [AggSpec("count")],
            expected_groups=64,
        )
        return dist.execute()

    def q16(self, sess, rng: random.Random, lo: int, hi: int) -> list[tuple]:
        """Q16 analog: supplier counts by part attributes (join-bound)."""
        sess.tracer.enter("rt.parser")
        sess.tracer.compute(costs.QUERY_SETUP)
        ctx = sess.ctx
        brand = rng.randrange(25)
        size_set = {rng.randrange(1, 51) for _ in range(8)}
        # The partsupp window determines which parts can match (ps_partkey
        # = rid // 4): scan exactly that part range on the build side.
        ps_lo, ps_hi = self._window(rng, lo, hi, self.join_window_rows)
        pred = lambda r: r[1] != brand and r[3] in size_set
        if fused.usable(ctx, self.part, self.partsupp):
            return fused.scan_filter_join_agg(
                ctx, self.part, ps_lo // 4,
                max(ps_hi // 4, ps_lo // 4 + 1), pred, 3, 0,
                self.partsupp, ps_lo, ps_hi, 0,
                (1, 2, 3), [AggSpec("count")], 1024,
                _count_update,
            )
        parts = Filter(
            ctx, SeqScan(ctx, self.part, start=ps_lo // 4,
                         stop=max(ps_hi // 4, ps_lo // 4 + 1)),
            pred, n_terms=3,
        )
        join = HashJoin(
            ctx, parts, SeqScan(ctx, self.partsupp, start=ps_lo, stop=ps_hi),
            build_key=lambda r: r[0], probe_key=lambda r: r[0],
        )
        agg = HashAggregate(
            ctx, join, lambda r: (r[1], r[2], r[3]), [AggSpec("count")],
            expected_groups=1024,
        )
        return agg.execute()

    # ------------------------------------------------------------------ #
    # Client driver                                                       #
    # ------------------------------------------------------------------ #

    def chunk(self, n_rows: int, client_no: int, n_chunks: int
              ) -> tuple[int, int]:
        """The contiguous row range client ``client_no`` owns."""
        n_chunks = max(1, n_chunks)
        idx = client_no % n_chunks
        per = n_rows // n_chunks
        lo = idx * per
        hi = n_rows if idx == n_chunks - 1 else lo + per
        return lo, hi

    def run_client(self, client_no: int, n_chunks: int,
                   queries: tuple[str, ...] = QUERIES,
                   seed: int | None = None, repeats: int = 1):
        """Run one client's query stream over its chunk; returns its Trace."""
        rng = random.Random((self.seed if seed is None else seed) * 7919
                            + client_no)
        sess = self.db.session(
            f"tpch-c{client_no}", ilp=DSS_ILP,
            branch_mpki=DSS_BRANCH_MPKI, ilp_inorder=DSS_ILP_INORDER,
        )
        li_lo, li_hi = self.chunk(self.n_lineitem, client_no, n_chunks)
        o_lo, o_hi = self.chunk(self.n_orders, client_no, n_chunks)
        ps_lo, ps_hi = self.chunk(self.n_partsupp, client_no, n_chunks)
        dispatch = {
            "q1": lambda: self.q1(sess, rng, li_lo, li_hi),
            "q6": lambda: self.q6(sess, rng, li_lo, li_hi),
            "q13": lambda: self.q13(sess, rng, o_lo, o_hi),
            "q16": lambda: self.q16(sess, rng, ps_lo, ps_hi),
        }
        # Rotate the query order per client so concurrent clients are in
        # different queries at any point — any measurement window then
        # samples a representative mix.
        rotated = tuple(
            queries[(i + client_no) % len(queries)]
            for i in range(len(queries))
        )
        for _ in range(repeats):
            for q in rotated:
                sess.tracer.enter("rt.kernel")
                sess.tracer.compute(costs.CONTEXT_SWITCH)
                sess.tracer.data(self.db.txns.log.tail_addr, kernel=True)
                dispatch[q]()
        return sess.finish()
