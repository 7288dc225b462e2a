"""Unit tests for query operators, checked against naive recomputation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, PageLayout, Schema
from repro.db.exec import (
    AggSpec,
    Filter,
    HashAggregate,
    HashJoin,
    SeqScan,
    StreamAggregate,
)
from repro.db.types import float64, int64


def make_db(rows=200, layout=PageLayout.NSM):
    db = Database()
    s = Schema("t", [int64("id"), int64("grp"), float64("v")])
    heap = db.catalog.create_table(s, layout=layout)
    for i in range(rows):
        heap.append((i, i % 7, float(i) * 0.5))
    return db, heap


def ctx_of(db):
    return db.session("c0", traced=False).ctx


class TestScans:
    def test_seqscan_returns_all_rows(self):
        db, heap = make_db(100)
        rows = SeqScan(ctx_of(db), heap).execute()
        assert rows == [heap.get(i) for i in range(100)]

    def test_seqscan_range(self):
        db, heap = make_db(100)
        rows = SeqScan(ctx_of(db), heap, start=10, stop=20).execute()
        assert [r[0] for r in rows] == list(range(10, 20))

    def test_seqscan_pax_projection_same_rows(self):
        db, heap = make_db(100, layout=PageLayout.PAX)
        rows = SeqScan(ctx_of(db), heap, columns=["v"]).execute()
        assert len(rows) == 100


class TestFilterProject:
    def test_filter(self):
        db, heap = make_db(100)
        out = Filter(ctx_of(db), SeqScan(ctx_of(db), heap),
                     lambda r: r[1] == 3).execute()
        assert all(r[1] == 3 for r in out)
        assert len(out) == sum(1 for i in range(100) if i % 7 == 3)


class TestJoins:
    def test_hash_join_matches_naive(self):
        db, left_heap = make_db(60)
        s2 = Schema("u", [int64("grp"), int64("w")])
        right = db.catalog.create_table(s2)
        for g in range(5):
            right.append((g, g * 100))
        ctx = ctx_of(db)
        out = HashJoin(
            ctx, SeqScan(ctx, right), SeqScan(ctx, left_heap),
            build_key=lambda r: r[0], probe_key=lambda r: r[1],
        ).execute()
        naive = [
            rr + lr
            for lr in [left_heap.get(i) for i in range(60)]
            for rr in [right.get(j) for j in range(5)]
            if rr[0] == lr[1]
        ]
        assert sorted(out) == sorted(naive)

    def test_hash_join_no_matches(self):
        db, heap = make_db(10)
        s2 = Schema("u", [int64("k")])
        right = db.catalog.create_table(s2)
        right.append((999,))
        ctx = ctx_of(db)
        out = HashJoin(ctx, SeqScan(ctx, right), SeqScan(ctx, heap),
                       build_key=lambda r: r[0],
                       probe_key=lambda r: r[0]).execute()
        assert out == []

    def test_join_schema_renames_duplicates(self):
        db, heap = make_db(1)
        ctx = ctx_of(db)
        j = HashJoin(ctx, SeqScan(ctx, heap), SeqScan(ctx, heap),
                     build_key=lambda r: r[0], probe_key=lambda r: r[0])
        names = [c.name for c in j.schema.columns]
        assert len(names) == len(set(names))


class TestAggregates:
    def test_stream_aggregate(self):
        db, heap = make_db(100)
        ctx = ctx_of(db)
        out = StreamAggregate(ctx, SeqScan(ctx, heap), [
            AggSpec("count"),
            AggSpec("sum", lambda r: r[2], "sv"),
            AggSpec("min", lambda r: r[2], "mn"),
            AggSpec("max", lambda r: r[2], "mx"),
            AggSpec("avg", lambda r: r[2], "av"),
        ]).execute()
        assert out == [(100, sum(i * 0.5 for i in range(100)), 0.0, 49.5,
                        sum(i * 0.5 for i in range(100)) / 100)]

    def test_hash_aggregate_groups(self):
        db, heap = make_db(100)
        ctx = ctx_of(db)
        out = HashAggregate(ctx, SeqScan(ctx, heap), lambda r: r[1],
                            [AggSpec("count")]).execute()
        as_dict = dict(out)
        for g in range(7):
            assert as_dict[g] == sum(1 for i in range(100) if i % 7 == g)

    def test_hash_aggregate_first_seen_order(self):
        db, heap = make_db(100)
        ctx = ctx_of(db)
        out = HashAggregate(ctx, SeqScan(ctx, heap), lambda r: r[1],
                            [AggSpec("count")]).execute()
        assert [r[0] for r in out] == list(range(7))

    def test_tuple_group_keys_flattened(self):
        db, heap = make_db(20)
        ctx = ctx_of(db)
        out = HashAggregate(ctx, SeqScan(ctx, heap),
                            lambda r: (r[1], r[0] % 2),
                            [AggSpec("count")]).execute()
        assert all(len(r) == 3 for r in out)

    def test_empty_aggs_rejected(self):
        db, heap = make_db(5)
        ctx = ctx_of(db)
        with pytest.raises(ValueError):
            HashAggregate(ctx, SeqScan(ctx, heap), lambda r: r[0], [])
        with pytest.raises(ValueError):
            AggSpec("sum")  # missing value extractor
        with pytest.raises(ValueError):
            AggSpec("median", lambda r: r[0])

    def test_avg_of_empty_input(self):
        db, heap = make_db(0)
        ctx = ctx_of(db)
        out = StreamAggregate(ctx, SeqScan(ctx, heap),
                              [AggSpec("avg", lambda r: r[2], "a")]).execute()
        assert out == [(None,)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)),
                max_size=150))
def test_group_count_property(pairs):
    """Property: hash-aggregate counts match collections.Counter."""
    from collections import Counter

    db = Database()
    s = Schema("p", [int64("k"), int64("g")])
    heap = db.catalog.create_table(s)
    for row in pairs:
        heap.append(row)
    ctx = db.session("c", traced=False).ctx
    out = HashAggregate(ctx, SeqScan(ctx, heap), lambda r: r[1],
                        [AggSpec("count")]).execute()
    assert dict(out) == dict(Counter(g for _, g in pairs))
