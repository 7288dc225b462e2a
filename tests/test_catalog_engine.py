"""Tests for the catalog and the Database/Session facade."""

import pytest

from repro.db import Database, Schema
from repro.db.types import int64


def schema(name="t"):
    return Schema(name, [int64("id"), int64("v")])


class TestCatalog:
    def test_create_returns_heap(self):
        db = Database()
        heap = db.catalog.create_table(schema())
        assert heap.schema.name == "t"
        assert db.catalog.create_table(schema("u")) is not heap

    def test_duplicate_table_rejected(self):
        db = Database()
        db.catalog.create_table(schema())
        with pytest.raises(ValueError):
            db.catalog.create_table(schema())


class TestSessions:
    def test_traced_session_produces_trace(self):
        db = Database()
        sess = db.session("c0", ilp=2.0)
        sess.tracer.compute(10)
        sess.tracer.data(0x1234)
        trace = sess.finish()
        assert trace.name == "c0"
        assert trace.ilp == 2.0

    def test_untraced_session_cannot_finish(self):
        db = Database()
        sess = db.session("c0", traced=False)
        with pytest.raises(TypeError):
            sess.finish()

    def test_session_transactions(self):
        db = Database()
        sess = db.session("c0", traced=False)
        txn = sess.begin()
        sess.commit(txn)
        assert db.txns.committed == 1
        txn2 = sess.begin()
        sess.abort(txn2)
        assert db.txns.aborted == 1

    def test_scratch_reused_across_queries(self):
        db = Database()
        sess = db.session("c0", traced=False)
        a = sess.ctx.scratch("sort", 1024)
        b = sess.ctx.scratch("sort", 512)
        assert a is b
        c = sess.ctx.scratch("sort", 4096)  # larger: reallocates
        assert c is not a

    def test_distinct_clients_distinct_scratch(self):
        db = Database()
        a = db.session("c0", traced=False).ctx.scratch("sort", 1024)
        b = db.session("c1", traced=False).ctx.scratch("sort", 1024)
        assert a.base != b.base
