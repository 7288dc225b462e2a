"""Tests for B+-tree deletion and rebalancing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.btree import BTreeIndex
from repro.simulator.addresses import AddressSpace
from tests.btree_invariants import check_invariants


def make_tree(order=4):
    return BTreeIndex(AddressSpace(), "idx", order=order)


class TestDelete:
    def test_delete_present(self):
        t = make_tree()
        t.insert(1, "a")
        assert t.delete(1) is True
        assert t.search(1) is None
        assert t.n_entries == 0

    def test_delete_absent(self):
        t = make_tree()
        t.insert(1, "a")
        assert t.delete(2) is False
        assert t.n_entries == 1

    def test_delete_from_deep_tree(self):
        t = make_tree(order=4)
        for k in range(200):
            t.insert(k, k)
        for k in range(0, 200, 2):
            assert t.delete(k)
        check_invariants(t)
        for k in range(200):
            expect = None if k % 2 == 0 else k
            assert t.search(k) == expect

    def test_delete_everything_collapses_root(self):
        t = make_tree(order=4)
        for k in range(100):
            t.insert(k, k)
        assert t.height > 1
        for k in range(100):
            assert t.delete(k)
        assert t.n_entries == 0
        assert t.height == 1
        assert list(t.items()) == []

    def test_range_scan_after_merges(self):
        t = make_tree(order=4)
        keys = list(range(300))
        random.Random(4).shuffle(keys)
        for k in keys:
            t.insert(k, k)
        rng = random.Random(5)
        removed = set(rng.sample(range(300), 180))
        for k in removed:
            t.delete(k)
        check_invariants(t)
        got = [k for k, _ in t.range(0, 300)]
        assert got == sorted(set(range(300)) - removed)

    def test_reinsert_after_delete(self):
        t = make_tree(order=4)
        for k in range(50):
            t.insert(k, k)
        for k in range(50):
            t.delete(k)
        for k in range(50):
            t.insert(k, k + 1000)
        check_invariants(t)
        assert t.search(25) == 1025


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 80)),
    max_size=300,
))
def test_btree_delete_matches_dict(ops):
    """Property: interleaved insert/delete tracks a dict, with invariants
    intact after every batch."""
    t = make_tree(order=4)
    reference = {}
    for op, k in ops:
        if op == "ins":
            t.insert(k, k * 3)
            reference[k] = k * 3
        else:
            expected = k in reference
            assert t.delete(k) == expected
            reference.pop(k, None)
    check_invariants(t)
    assert list(t.items()) == sorted(reference.items())
    for k, v in reference.items():
        assert t.search(k) == v
