"""Page formats: slotted NSM pages and PAX pages.

The engine works with 8 KB pages.  A :class:`PageFormat` precomputes, for a
schema and layout, where every field of every slot lives inside a page —
the addresses the workload's references touch:

- **NSM** (N-ary storage model, the classic slotted page): records are
  stored contiguously after the header, so one record's fields share cache
  lines with each other.
- **PAX** (Partition Attributes Across, [3] in the paper): each column
  occupies a "minipage", so one column's values across records share cache
  lines — the cache-conscious layout Section 6.2 discusses.

Rows themselves are Python tuples held by the heap file; the page format is
pure layout arithmetic.
"""

from __future__ import annotations

import enum

from ..simulator.addresses import PAGE_SIZE
from .schema import Schema

#: Bytes of page header (LSN, slot count, free-space pointers).
PAGE_HEADER_BYTES = 24

#: Bytes per slot-directory entry (offset + length).
SLOT_ENTRY_BYTES = 4


class PageLayout(enum.Enum):
    """On-page record organization."""

    NSM = "nsm"
    PAX = "pax"


class PageFormat:
    """Layout arithmetic for one (schema, layout) pair.

    Attributes:
        schema: The relation schema.
        layout: NSM or PAX.
        capacity: Records that fit in one page.
    """

    def __init__(self, schema: Schema, layout: PageLayout = PageLayout.NSM):
        self.schema = schema
        self.layout = layout
        self._row_width = schema.row_width
        self._nsm = layout is PageLayout.NSM
        usable = PAGE_SIZE - PAGE_HEADER_BYTES
        if layout is PageLayout.NSM:
            per_row = schema.row_width + SLOT_ENTRY_BYTES
            self.capacity = usable // per_row
        else:
            # PAX: each record consumes its row width spread over minipages,
            # plus a presence bit (approximated by one byte) per column.
            per_row = schema.row_width + schema.n_columns
            self.capacity = usable // per_row
        if self.capacity < 1:
            raise ValueError(
                f"schema {schema.name!r} rows too wide for one page"
            )
        if layout is PageLayout.PAX:
            # Minipage byte offsets, one per column.
            self._mini_offsets = []
            off = PAGE_HEADER_BYTES
            for col in schema.columns:
                self._mini_offsets.append(off)
                off += col.width * self.capacity

    # ------------------------------------------------------------------ #
    # Address arithmetic                                                  #
    # ------------------------------------------------------------------ #

    def slot_addr(self, page_base: int, slot: int) -> int:
        """Address of the slot-directory entry (NSM) or of the record's
        first field (PAX — PAX has no slot directory)."""
        self._check_slot(slot)
        if self.layout is PageLayout.NSM:
            return page_base + PAGE_SIZE - (slot + 1) * SLOT_ENTRY_BYTES
        return self.field_addr(page_base, slot, 0)

    def record_addr(self, page_base: int, slot: int) -> int:
        """Address of the start of the record (NSM) / first field (PAX)."""
        if not 0 <= slot < self.capacity:
            self._check_slot(slot)
        if self._nsm:
            return page_base + PAGE_HEADER_BYTES + slot * self._row_width
        return self.field_addr(page_base, slot, 0)

    def field_addr(self, page_base: int, slot: int, col: int) -> int:
        """Address of column ``col`` of the record in ``slot``."""
        if not 0 <= slot < self.capacity:
            self._check_slot(slot)
        schema = self.schema
        if self._nsm:
            return (
                page_base
                + PAGE_HEADER_BYTES
                + slot * self._row_width
                + schema._offsets[col]
            )
        return (
            page_base
            + self._mini_offsets[col]
            + slot * schema._widths[col]
        )

    def record_lines(self, page_base: int, slot: int) -> list[int]:
        """Line-aligned addresses covering the whole record.

        Used by full-row readers: one reference per distinct cache line the
        record spans.  NSM records are contiguous; a PAX "record" spans one
        line per minipage, which is exactly why PAX wins for narrow
        projections and loses for full-row access.
        """
        self._check_slot(slot)
        if self.layout is PageLayout.NSM:
            start = self.record_addr(page_base, slot)
            end = start + self._row_width
            first = start & ~63
            return list(range(first, end, 64))
        lines = []
        seen = set()
        for col in range(self.schema.n_columns):
            a = self.field_addr(page_base, slot, col) & ~63
            if a not in seen:
                seen.add(a)
                lines.append(a)
        return lines

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.capacity:
            raise ValueError(
                f"slot {slot} out of range (capacity {self.capacity})"
            )
