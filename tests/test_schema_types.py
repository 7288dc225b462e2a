"""Tests for column types, schemas, and layout arithmetic."""

import pytest

from repro.db.page import PAGE_HEADER_BYTES, PageFormat, PageLayout
from repro.db.schema import Schema
from repro.db.types import Column, ColumnType, char, date, float64, int32, int64


class TestTypes:
    def test_widths(self):
        assert int32("a").width == 4
        assert int64("a").width == 8
        assert float64("a").width == 8
        assert date("a").width == 4
        assert char("a", 17).width == 17

    def test_char_needs_length(self):
        with pytest.raises(ValueError):
            Column("a", ColumnType.CHAR).width


class TestSchema:
    def make(self):
        return Schema("t", [int64("id"), int32("x"), char("s", 10),
                            float64("v")])

    def test_row_width(self):
        assert self.make().row_width == 8 + 4 + 10 + 8

    def test_offsets_cumulative(self):
        fmt = PageFormat(self.make(), PageLayout.NSM)
        assert [fmt.field_addr(0, 0, i) - PAGE_HEADER_BYTES
                for i in range(4)] == [0, 8, 12, 22]

    def test_column_index(self):
        s = self.make()
        assert s.column_index("v") == 3
        with pytest.raises(KeyError):
            s.column_index("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema("t", [int64("a"), int32("a")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schema("t", [])

    def test_column_width(self):
        s = self.make()
        assert s.columns[2].width == 10
