"""Unit and property tests for the B+-tree index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.btree import BTreeIndex
from repro.db.tracer import NullTracer
from repro.simulator.addresses import AddressSpace
from tests.btree_invariants import check_invariants
from tests.trace_events import flags


def make_tree(order=8):
    return BTreeIndex(AddressSpace(), "idx", order=order)


class TestBasics:
    def test_empty_search(self):
        t = make_tree()
        assert t.search(1) is None

    def test_insert_search(self):
        t = make_tree()
        t.insert(5, "five")
        assert t.search(5) == "five"
        assert t.search(4) is None

    def test_duplicate_key_overwrites(self):
        t = make_tree()
        t.insert(1, "a")
        t.insert(1, "b")
        assert t.search(1) == "b"
        assert t.n_entries == 1

    def test_order_validation(self):
        with pytest.raises(ValueError):
            make_tree(order=2)

    def test_split_grows_height(self):
        t = make_tree(order=4)
        for i in range(100):
            t.insert(i, i)
        assert t.height >= 3
        check_invariants(t)

    def test_search_after_many_splits(self):
        t = make_tree(order=4)
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for k in keys:
            t.insert(k, k * 10)
        for k in range(500):
            assert t.search(k) == k * 10

    def test_range_scan_sorted(self):
        t = make_tree(order=6)
        for k in random.Random(1).sample(range(1000), 300):
            t.insert(k, -k)
        got = list(t.range(100, 400))
        keys = [k for k, _ in got]
        assert keys == sorted(keys)
        assert all(100 <= k < 400 for k in keys)

    def test_range_empty_interval(self):
        t = make_tree()
        for k in range(10):
            t.insert(k, k)
        assert list(t.range(20, 30)) == []
        assert list(t.range(5, 5)) == []

    def test_range_spans_leaves(self):
        t = make_tree(order=4)
        for k in range(200):
            t.insert(k, k)
        got = [k for k, _ in t.range(0, 200)]
        assert got == list(range(200))

    def test_items_complete(self):
        t = make_tree(order=4)
        for k in range(100, 0, -1):
            t.insert(k, k)
        assert [k for k, _ in t.items()] == list(range(1, 101))

    def test_composite_keys(self):
        t = make_tree(order=4)
        for w in range(5):
            for d in range(10):
                t.insert((w, d), w * 100 + d)
        got = list(t.range((2, 0), (3, 0)))
        assert [k for k, _ in got] == [(2, d) for d in range(10)]


class TestTracing:
    def test_search_emits_depth_many_dependent_refs(self):
        from repro.db.tracer import CodeRegistry, MemoryTracer
        from repro.simulator.trace import FLAG_DEPENDENT

        space = AddressSpace()
        t = BTreeIndex(space, "idx", order=4)
        for k in range(200):
            t.insert(k, k)
        tracer = MemoryTracer(CodeRegistry(space), "c")
        t.search(100, tracer)
        trace = tracer.finish()
        dep = sum(1 for f in flags(trace) if f & FLAG_DEPENDENT)
        assert dep >= t.height  # one per level at least

    def test_nodes_have_distinct_addresses(self):
        t = make_tree(order=4)
        for k in range(500):
            t.insert(k, k)

        bases = []

        def collect(node):
            bases.append(node.base)
            for c in node.children:
                collect(c)

        collect(t.root)
        assert len(bases) == len(set(bases)) == t.n_nodes


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-10_000, 10_000), st.integers()),
                max_size=400))
def test_btree_matches_dict(pairs):
    """Property: the tree behaves like a dict with sorted iteration."""
    t = make_tree(order=4)
    reference = {}
    for k, v in pairs:
        t.insert(k, v)
        reference[k] = v
    check_invariants(t)
    assert list(t.items()) == sorted(reference.items())
    for k, v in reference.items():
        assert t.search(k) == v


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 2000), min_size=1, max_size=300),
    st.integers(0, 2000),
    st.integers(0, 2000),
)
def test_btree_range_matches_sorted_filter(keys, a, b):
    """Property: range(lo, hi) == sorted keys within [lo, hi)."""
    lo, hi = min(a, b), max(a, b)
    t = make_tree(order=4)
    for k in keys:
        t.insert(k, k)
    expected = sorted(k for k in set(keys) if lo <= k < hi)
    assert [k for k, _ in t.range(lo, hi)] == expected
