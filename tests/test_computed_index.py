"""Tests for the computed dense index (virtual-table companion)."""

import pytest

from repro.db.computed_index import ComputedDenseIndex
from repro.db.tracer import CodeRegistry, MemoryTracer
from repro.simulator.addresses import PAGE_SIZE, AddressSpace
from repro.simulator.trace import FLAG_DEPENDENT
from tests.trace_events import flags


def make(n_keys=100_000, fanout=256):
    return ComputedDenseIndex(AddressSpace(), "idx", n_keys, fanout=fanout)


class TestShape:
    def test_height_matches_btree_math(self):
        idx = make(n_keys=100_000, fanout=256)
        # 100k keys / 256 = 391 leaves; /256 = 2; /256 = 1 root -> height 3.
        assert idx.height == 3
        assert idx.level_nodes == [1, 2, 391]

    def test_single_leaf_tree(self):
        idx = make(n_keys=100, fanout=256)
        assert idx.height == 1
        assert idx.n_nodes == 1

    def test_node_count(self):
        idx = make(n_keys=10_000, fanout=100)
        assert idx.n_nodes == sum(idx.level_nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            make(n_keys=0)
        with pytest.raises(ValueError):
            make(fanout=2)


class TestAddressing:
    def test_nodes_page_sized_and_disjoint(self):
        idx = make(n_keys=5000, fanout=64)
        addrs = [
            idx.node_addr(lvl, n)
            for lvl, count in enumerate(idx.level_nodes)
            for n in range(count)
        ]
        assert len(set(addrs)) == len(addrs)
        assert all(a % PAGE_SIZE == 0 for a in addrs)

    def test_node_addr_bounds(self):
        idx = make(n_keys=5000, fanout=64)
        with pytest.raises(IndexError):
            idx.node_addr(99, 0)
        with pytest.raises(IndexError):
            idx.node_addr(0, 1)  # root level has exactly one node


class TestDescent:
    def test_path_root_to_leaf(self):
        idx = make(n_keys=100_000, fanout=256)
        path = idx.descent_path(70_000)
        assert len(path) == idx.height
        assert path[0] == idx.node_addr(0, 0)
        assert path[-1] == idx.node_addr(idx.height - 1, 70_000 // 256)

    def test_adjacent_keys_share_upper_levels(self):
        idx = make(n_keys=100_000, fanout=256)
        a = idx.descent_path(1000)
        b = idx.descent_path(1001)
        assert a[:-1] == b[:-1] and a[-1] == b[-1]  # same leaf too
        c = idx.descent_path(99_000)
        assert a[0] == c[0] and a[-1] != c[-1]

    def test_search_returns_key_as_rid(self):
        idx = make()
        assert idx.search(777) == 777

    def test_search_out_of_range(self):
        idx = make(n_keys=10)
        with pytest.raises(KeyError):
            idx.search(10)

    def test_search_emits_dependent_descent(self):
        space = AddressSpace()
        idx = ComputedDenseIndex(space, "idx", 100_000)
        tracer = MemoryTracer(CodeRegistry(space), "c")
        idx.search(5, tracer)
        trace = tracer.finish()
        deps = [f & FLAG_DEPENDENT for f in flags(trace)]
        assert sum(bool(d) for d in deps) >= 2 * idx.height

    def test_range_yields_dense_keys(self):
        idx = make(n_keys=1000, fanout=16)
        got = [k for k, _ in idx.range(37, 61)]
        assert got == list(range(37, 61))

    def test_range_clamps(self):
        idx = make(n_keys=100)
        assert [k for k, _ in idx.range(-5, 3)] == [0, 1, 2]
        assert list(idx.range(98, 300))[-1][0] == 99
        assert list(idx.range(50, 50)) == []
