"""Unit tests for page formats (NSM and PAX layout arithmetic)."""

import pytest

from repro.db.page import (
    PAGE_HEADER_BYTES,
    SLOT_ENTRY_BYTES,
    PageFormat,
    PageLayout,
)
from repro.db.schema import Schema
from repro.db.types import char, float64, int32, int64
from repro.simulator.addresses import PAGE_SIZE


def schema():
    return Schema("t", [int64("a"), int32("b"), float64("c"), char("d", 20)])


BASE = 0x10_0000


class TestNSM:
    def test_capacity(self):
        fmt = PageFormat(schema(), PageLayout.NSM)
        per_row = schema().row_width + SLOT_ENTRY_BYTES
        assert fmt.capacity == (PAGE_SIZE - PAGE_HEADER_BYTES) // per_row

    def test_record_addresses_contiguous(self):
        fmt = PageFormat(schema(), PageLayout.NSM)
        w = schema().row_width
        assert fmt.record_addr(BASE, 0) == BASE + PAGE_HEADER_BYTES
        assert fmt.record_addr(BASE, 3) == BASE + PAGE_HEADER_BYTES + 3 * w

    def test_field_addr_uses_column_offset(self):
        s = schema()
        fmt = PageFormat(s, PageLayout.NSM)
        rec = fmt.record_addr(BASE, 2)
        assert fmt.field_addr(BASE, 2, 0) == rec
        assert fmt.field_addr(BASE, 2, 1) == rec + 8
        assert fmt.field_addr(BASE, 2, 2) == rec + 12
        assert fmt.field_addr(BASE, 2, 3) == rec + 20

    def test_slot_directory_grows_from_page_end(self):
        fmt = PageFormat(schema(), PageLayout.NSM)
        assert fmt.slot_addr(BASE, 0) == BASE + PAGE_SIZE - SLOT_ENTRY_BYTES
        assert fmt.slot_addr(BASE, 1) == BASE + PAGE_SIZE - 2 * SLOT_ENTRY_BYTES

    def test_record_lines_cover_row(self):
        s = schema()
        fmt = PageFormat(s, PageLayout.NSM)
        lines = fmt.record_lines(BASE, 5)
        start = fmt.record_addr(BASE, 5)
        assert lines[0] <= start
        assert lines[-1] + 64 >= start + s.row_width
        assert all(a % 64 == 0 for a in lines)

    def test_all_records_within_page(self):
        s = schema()
        fmt = PageFormat(s, PageLayout.NSM)
        last = fmt.record_addr(BASE, fmt.capacity - 1) + s.row_width
        assert last <= BASE + PAGE_SIZE

    def test_slot_bounds_checked(self):
        fmt = PageFormat(schema(), PageLayout.NSM)
        with pytest.raises(ValueError):
            fmt.field_addr(BASE, fmt.capacity, 0)
        with pytest.raises(ValueError):
            fmt.record_addr(BASE, -1)


class TestPAX:
    def test_minipages_are_disjoint_and_ordered(self):
        s = schema()
        fmt = PageFormat(s, PageLayout.PAX)
        ends = []
        for col in range(s.n_columns):
            first = fmt.field_addr(BASE, 0, col)
            last = fmt.field_addr(BASE, fmt.capacity - 1, col)
            ends.append((first, last + s.columns[col].width))
        for (f1, e1), (f2, _) in zip(ends, ends[1:]):
            assert e1 <= f2, "minipages overlap"
        assert ends[-1][1] <= BASE + PAGE_SIZE

    def test_same_column_values_adjacent(self):
        s = schema()
        fmt = PageFormat(s, PageLayout.PAX)
        a0 = fmt.field_addr(BASE, 0, 0)
        a1 = fmt.field_addr(BASE, 1, 0)
        assert a1 - a0 == s.columns[0].width

    def test_projection_touches_fewer_lines_than_nsm(self):
        """The PAX benefit: scanning one narrow column touches far fewer
        distinct lines than NSM full-record access."""
        s = schema()
        nsm = PageFormat(s, PageLayout.NSM)
        pax = PageFormat(s, PageLayout.PAX)
        n = min(nsm.capacity, pax.capacity)
        nsm_lines = {nsm.record_addr(BASE, i) & ~63 for i in range(n)}
        pax_lines = {pax.field_addr(BASE, i, 1) & ~63 for i in range(n)}
        assert len(pax_lines) * 3 < len(nsm_lines)

    def test_record_lines_one_per_minipage(self):
        s = schema()
        fmt = PageFormat(s, PageLayout.PAX)
        lines = fmt.record_lines(BASE, 0)
        assert len(lines) == s.n_columns  # distinct minipage lines

    def test_wide_row_rejected(self):
        s = Schema("wide", [char("x", PAGE_SIZE)])
        with pytest.raises(ValueError):
            PageFormat(s, PageLayout.NSM)
