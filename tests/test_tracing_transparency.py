"""Tracing transparency: recording a trace never changes query answers.

The engine runs every query twice in these tests — once under a
MemoryTracer, once under the NullTracer — and the answers must be
identical.  This is the core soundness property of the bridge design: the
characterization instrument cannot perturb the thing it measures.
"""

import pytest

from repro.db import Database, PageLayout, Schema
from repro.db.exec import AggSpec, Filter, HashAggregate, HashJoin, SeqScan
from repro.db.types import char, float64, int64


def build_db(layout=PageLayout.NSM):
    db = Database()
    t = db.catalog.create_table(Schema("t", [
        int64("k"), int64("g"), float64("v"), char("pad", 20),
    ]), layout=layout)
    for i in range(400):
        t.append((i, i % 9, (i * 37 % 100) / 4.0, "x"))
    u = db.catalog.create_table(Schema("u", [int64("g"), float64("w")]))
    for g in range(9):
        u.append((g, g * 1.5))
    return db, t, u


def run_plan(traced: bool, layout=PageLayout.NSM):
    db, t, u = build_db(layout)
    sess = db.session("c", traced=traced)
    ctx = sess.ctx
    plan = HashAggregate(
        ctx,
        HashJoin(
            ctx,
            Filter(ctx, SeqScan(ctx, u), lambda r: r[0] != 4),
            SeqScan(ctx, t),
            build_key=lambda r: r[0],
            probe_key=lambda r: r[1],
        ),
        lambda r: r[0],
        [AggSpec("count"), AggSpec("sum", lambda r: r[4], "sv"),
         AggSpec("avg", lambda r: r[4], "av")],
    )
    out = plan.execute()
    if traced:
        trace = sess.finish()
        assert len(trace) > 0
    return out


class TestTransparency:
    def test_join_aggregate_pipeline(self):
        assert run_plan(True) == run_plan(False)

    def test_pax_layout(self):
        assert (run_plan(True, PageLayout.PAX)
                == run_plan(False, PageLayout.PAX))

    def test_tpch_queries_transparent(self):
        import random
        from repro.workloads.tpch import TpchDatabase

        answers = {}
        for traced in (True, False):
            tpch = TpchDatabase(scale=0.02, seed=5)
            sess = tpch.db.session("c", traced=traced)
            rng = random.Random(9)
            answers[traced] = (
                tpch.q1(sess, rng, 0, 2000),
                tpch.q6(sess, rng, 0, 2000),
            )
            if traced:
                sess.finish()
        assert answers[True] == answers[False]

    def test_tpcc_state_transparent(self):
        """Transaction effects are identical traced vs untraced."""
        from repro.workloads.tpcc import TpccDatabase
        import random

        states = {}
        for traced in (True, False):
            tpcc = TpccDatabase(scale=0.05, seed=8)
            sess = tpcc.db.session("c", traced=traced)
            rng = random.Random(77)
            for _ in range(6):
                tpcc.tx_neworder(sess, rng, home_w=0)
                tpcc.tx_payment(sess, rng, home_w=0)
            if traced:
                sess.finish()
            states[traced] = (
                [row for _, row in tpcc.orders.scan()],
                tpcc.warehouse.get(0),
                tpcc.district.get(0),
            )
        assert states[True] == states[False]
