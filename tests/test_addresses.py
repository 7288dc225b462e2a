"""Unit tests for the synthetic address space."""

import pytest

from repro.simulator.addresses import LINE_SIZE, PAGE_SIZE, AddressSpace


class TestAllocator:
    def test_regions_do_not_overlap(self):
        sp = AddressSpace()
        regions = [sp.alloc(f"r{i}", 1000 + 37 * i) for i in range(20)]
        for a, b in zip(regions, regions[1:]):
            assert a.end <= b.base

    def test_page_alignment(self):
        sp = AddressSpace()
        r = sp.alloc("r", 100)
        assert r.base % PAGE_SIZE == 0

    def test_alloc_pages(self):
        sp = AddressSpace()
        r = sp.alloc_pages("t", 3)
        assert r.size == 3 * PAGE_SIZE

    def test_rejects_bad_size(self):
        sp = AddressSpace()
        with pytest.raises(ValueError):
            sp.alloc("r", 0)

    def test_rejects_bad_alignment(self):
        sp = AddressSpace()
        with pytest.raises(ValueError):
            sp.alloc("r", 10, align=3)

    def test_allocated_bytes(self):
        sp = AddressSpace()
        a = sp.alloc("a", 100)
        b = sp.alloc("b", 200)
        assert a.size + b.size == 300
        assert a.base + a.size <= b.base


class TestRegion:
    def test_addr_bounds(self):
        sp = AddressSpace()
        r = sp.alloc("r", 128)
        assert r.addr(0) == r.base
        assert r.addr(127) == r.base + 127
        with pytest.raises(ValueError):
            r.addr(128)
        with pytest.raises(ValueError):
            r.addr(-1)

    def test_lines_rounds_up(self):
        sp = AddressSpace()
        r = sp.alloc("r", LINE_SIZE + 1)
        assert r.lines == 2
