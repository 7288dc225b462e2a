"""DBmbench-style microbenchmarks: tiny workloads, faithful microbehaviour.

The paper leans on DBmbench [24] ("Fast and Accurate Database Workload
Representation on Modern Microarchitecture") for the claim that scaled-down
workloads preserve microarchitectural behaviour.  DBmbench distills TPC-C
and TPC-H into three single-table microbenchmarks; this module provides the
scan and index ones over our engine:

- **uSS** ("micro scan set", the DSS proxy): a sequential scan with a
  selective predicate and a tiny aggregate — streaming, prefetchable,
  compute-regular.
- **uIDX** ("micro index", the OLTP proxy): random B+-tree probes followed
  by a row touch and an update — dependent, write-heavy, cache-hostile.

Each generator returns a one-client :class:`~repro.simulator.trace.Workload`
that can stand in for the full benchmark in quick calibration runs; the
test suite checks that the proxies profile like their full counterparts
(uIDX pointer-chasing and write-heavy, uSS streaming).
"""

from __future__ import annotations

import random

from ..db import Database, Schema
from ..db import costs
from ..db.exec import AggSpec, Filter, SeqScan, StreamAggregate, fused
from ..db.types import char, float64, int64


def _uss_update(st, r):
    """uSS accumulator body (float-identical to its AggSpec updates)."""
    st[0] += r[2]
    st[1] += 1
from ..simulator.trace import Workload
from .tpcc import OLTP_BRANCH_MPKI, OLTP_ILP, OLTP_ILP_INORDER
from .tpch import DSS_BRANCH_MPKI, DSS_ILP, DSS_ILP_INORDER


def _t1_schema() -> Schema:
    """DBmbench's generic table T1(a1, a2, a3, padding)."""
    return Schema("t1", [
        int64("a1"), int64("a2"), float64("a3"), char("pad", 76),
    ])


class MicroDatabase:
    """One T1 table, virtual rows, plus a primary B+-tree-shaped index."""

    def __init__(self, n_rows: int = 40_000, seed: int = 21):
        if n_rows <= 0:
            raise ValueError("n_rows must be positive")
        self.n_rows = n_rows
        self.seed = seed
        self.db = Database("micro")
        self.t1 = self.db.catalog.create_table(
            _t1_schema(), n_virtual_rows=n_rows, row_source=self._row,
        )
        from ..db.computed_index import ComputedDenseIndex
        self.t1_idx = ComputedDenseIndex(self.db.space, "t1_pk", n_rows)

    def _row(self, rid: int) -> tuple:
        m = (rid * 2654435761 + self.seed * 97) & 0x7FFF_FFFF
        return (rid, m % 20_000, (m % 10_000) / 100.0, "pad")


def micro_ss(n_rows: int = 40_000, selectivity: float = 0.1,
             seed: int = 21) -> Workload:
    """uSS: sequential scan + predicate + aggregate (the DSS proxy)."""
    if not 0 < selectivity <= 1:
        raise ValueError("selectivity must be in (0, 1]")
    micro = MicroDatabase(n_rows=n_rows, seed=seed)
    sess = micro.db.session("uSS", ilp=DSS_ILP,
                            branch_mpki=DSS_BRANCH_MPKI,
                            ilp_inorder=DSS_ILP_INORDER)
    cut = int(20_000 * selectivity)
    pred = lambda r: r[1] < cut
    aggs = [AggSpec("sum", lambda r: r[2], "s"), AggSpec("count")]
    if fused.usable(sess.ctx, micro.t1):
        fused.scan_filter_stream_agg(
            sess.ctx, micro.t1, 0, micro.t1.n_rows, pred, 1, aggs,
            _uss_update,
        )
    else:
        scan = SeqScan(sess.ctx, micro.t1)
        filt = Filter(sess.ctx, scan, pred)
        agg = StreamAggregate(sess.ctx, filt, aggs)
        agg.execute()
    return Workload("uSS", [sess.finish()], kind="dss", saturated=False)


def micro_idx(n_probes: int = 4000, n_rows: int = 200_000,
              update_fraction: float = 0.5, seed: int = 22) -> Workload:
    """uIDX: random index probes with updates (the OLTP proxy)."""
    if not 0 <= update_fraction <= 1:
        raise ValueError("update_fraction must be in [0, 1]")
    micro = MicroDatabase(n_rows=n_rows, seed=seed)
    sess = micro.db.session("uIDX", ilp=OLTP_ILP,
                            branch_mpki=OLTP_BRANCH_MPKI,
                            ilp_inorder=OLTP_ILP_INORDER)
    tracer = sess.tracer
    rng = random.Random(seed)
    heap = micro.t1
    for _ in range(n_probes):
        tracer.enter("txn.manager")
        tracer.compute(costs.TXN_BEGIN // 2)
        key = rng.randrange(n_rows)
        rid = micro.t1_idx.search(key, tracer)
        page_no, _ = heap.locate(rid)
        micro.db.pool.fetch(heap, page_no, tracer)
        tracer.enter("storage.heap")
        tracer.compute(costs.EMIT_TUPLE)
        tracer.data(heap.record_addr(rid), dependent=True)
        if rng.random() < update_fraction:
            heap.set_field(rid, 2, rng.random())
            tracer.compute(costs.EMIT_TUPLE)
            tracer.data(heap.field_addr(rid, 2), write=True)
            micro.db.txns.log.append(48, tracer)
    return Workload("uIDX", [sess.finish()], kind="oltp", saturated=False)
