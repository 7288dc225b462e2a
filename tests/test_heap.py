"""Unit tests for heap files (materialized and virtual)."""

import pytest

from repro.db.heap import EXTENT_PAGES, HeapFile
from repro.db.page import PageLayout
from repro.db.schema import Schema
from repro.db.types import char, float64, int64
from repro.simulator.addresses import PAGE_SIZE, AddressSpace


def schema():
    return Schema("t", [int64("id"), float64("v"), char("pad", 30)])


def make_heap(**kw):
    return HeapFile(AddressSpace(), schema(), "t", **kw)


class TestMaterialized:
    def test_append_get_roundtrip(self):
        h = make_heap()
        rids = [h.append((i, i * 1.5, "p")) for i in range(100)]
        assert rids == list(range(100))
        assert h.get(50) == (50, 75.0, "p")
        assert h.n_rows == 100

    def test_arity_checked(self):
        h = make_heap()
        with pytest.raises(ValueError):
            h.append((1, 2.0))

    def test_out_of_range_get(self):
        h = make_heap()
        h.append((1, 1.0, "a"))
        with pytest.raises(IndexError):
            h.get(1)
        with pytest.raises(IndexError):
            h.get(-1)

    def test_set_field(self):
        h = make_heap()
        h.append((1, 1.0, "a"))
        new = h.set_field(0, 1, 9.0)
        assert new == (1, 9.0, "a")
        assert h.get(0) == (1, 9.0, "a")

    def test_scan_range(self):
        h = make_heap()
        for i in range(10):
            h.append((i, 0.0, "x"))
        got = [rid for rid, _ in h.scan(3, 7)]
        assert got == [3, 4, 5, 6]

    def test_pages_grow_with_rows(self):
        h = make_heap()
        cap = h.format.capacity
        for i in range(cap + 1):
            h.append((i, 0.0, "x"))
        assert h.n_pages == 2

    def test_extent_allocation(self):
        h = make_heap()
        cap = h.format.capacity
        for i in range(cap * (EXTENT_PAGES + 1)):
            h.append((i, 0.0, "x"))
        # Pages beyond the first extent resolve to the second extent.
        assert h.page_base(EXTENT_PAGES) != h.page_base(0)
        assert h.page_base(EXTENT_PAGES) % PAGE_SIZE == 0


class TestVirtual:
    def row_source(self, rid):
        return (rid, rid * 2.0, "v")

    def make(self, n=1000):
        return HeapFile(AddressSpace(), schema(), "t",
                        n_virtual_rows=n, row_source=self.row_source)

    def test_requires_row_source(self):
        with pytest.raises(ValueError):
            HeapFile(AddressSpace(), schema(), "t", n_virtual_rows=10)

    def test_get_generates(self):
        h = self.make()
        assert h.get(123) == (123, 246.0, "v")
        assert h.n_rows == 1000

    def test_append_rejected(self):
        h = self.make()
        with pytest.raises(TypeError):
            h.append((1, 1.0, "x"))

    def test_overlay_update(self):
        h = self.make()
        h.set_field(5, 1, -1.0)
        assert h.get(5) == (5, -1.0, "v")
        assert h.get(6) == (6, 12.0, "v")  # neighbours unaffected

    def test_pages_preallocated(self):
        h = self.make(n=10_000)
        # Every page addressable without growth.
        assert h.page_base(h.n_pages - 1) > 0

    def test_footprint_scales_with_rows(self):
        small = self.make(n=100)
        large = self.make(n=10_000)
        assert large.n_pages > 50 * small.n_pages


#: A narrow row (46 bytes, one scan reference) and a wide one (126
#: bytes, a second reference one line on).
NARROW = Schema("n", [int64("id"), float64("v"), char("pad", 30)])
WIDE = Schema("w", [int64("id"), float64("v"), char("pad", 110)])


def _row(rid):
    return (rid, rid * 2.0, "v")


def _scan_refs(h, rid):
    """The references a scan of row ``rid`` makes, from ``record_addr``."""
    addr = h.record_addr(rid)
    return [addr, addr + 64] if h.schema.row_width > 64 else [addr]


@pytest.mark.parametrize("sch", [NARROW, WIDE], ids=["narrow", "wide"])
class TestUncachedPages:
    """Pages are built on every call, so each mutation shows up in the
    next ``page_rows``/``scan_addr_block`` with no invalidation step."""

    def _check_page(self, h, page_no):
        cap = h.format.capacity
        rids = range(page_no * cap, min((page_no + 1) * cap, h.n_rows))
        assert h.page_rows(page_no) == [h.get(r) for r in rids]
        block = h.scan_addr_block(page_no)
        assert block == [a for r in rids for a in _scan_refs(h, r)]
        for r in rids:
            lines = h.record_lines(r)
            assert all(a & ~63 in lines for a in _scan_refs(h, r))

    def test_materialized_append_shows(self, sch):
        h = HeapFile(AddressSpace(), sch, "t")
        for i in range(3):
            h.append(_row(i))
        self._check_page(h, 0)
        h.append(_row(3))
        assert len(h.page_rows(0)) == 4
        self._check_page(h, 0)
        cap = h.format.capacity
        for i in range(4, cap + 2):
            h.append(_row(i))
        self._check_page(h, 0)
        self._check_page(h, 1)
        assert len(h.page_rows(1)) == 2

    def test_materialized_set_field_shows(self, sch):
        h = HeapFile(AddressSpace(), sch, "t")
        for i in range(5):
            h.append(_row(i))
        h.page_rows(0)
        h.set_field(2, 1, -1.0)
        assert h.page_rows(0)[2] == (2, -1.0, "v")
        self._check_page(h, 0)

    @pytest.mark.parametrize("blocks", [False, True],
                             ids=["row-source", "block-source"])
    def test_virtual_set_field_shows(self, sch, blocks):
        block_source = None
        if blocks:
            def block_source(start, stop):
                return [_row(r) for r in range(start, stop)]
        h = HeapFile(AddressSpace(), sch, "t", n_virtual_rows=200,
                     row_source=_row,
                     row_block_source=block_source)
        self._check_page(h, 0)
        h.set_field(1, 1, -1.0)
        assert h.page_rows(0)[1] == (1, -1.0, "v")
        self._check_page(h, 0)
        self._check_page(h, h.n_pages - 1)


class TestAddressing:
    def test_locate_inverse_of_append_order(self):
        h = make_heap()
        cap = h.format.capacity
        for i in range(cap * 2):
            h.append((i, 0.0, "x"))
        assert h.locate(0) == (0, 0)
        assert h.locate(cap) == (1, 0)
        assert h.locate(cap + 3) == (1, 3)

    def test_record_addrs_unique(self):
        h = make_heap()
        for i in range(200):
            h.append((i, 0.0, "x"))
        addrs = {h.record_addr(i) for i in range(200)}
        assert len(addrs) == 200

    def test_field_addr_within_page(self):
        h = make_heap()
        h.append((0, 0.0, "x"))
        base = h.page_base(0)
        assert base <= h.field_addr(0, 2) < base + PAGE_SIZE

    def test_pax_layout_supported(self):
        h = HeapFile(AddressSpace(), schema(), "t", layout=PageLayout.PAX)
        h.append((1, 1.0, "a"))
        assert h.get(0) == (1, 1.0, "a")
        assert h.format.layout is PageLayout.PAX

    def test_unallocated_page_raises(self):
        h = make_heap()
        with pytest.raises(IndexError):
            h.page_base(EXTENT_PAGES * 10)
