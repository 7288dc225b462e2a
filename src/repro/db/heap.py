"""Heap files: row storage over extents of pages in the address space.

Two storage modes share one interface:

- *materialized*: rows are Python tuples appended at runtime (the mutable
  OLTP tables and all small tables);
- *virtual*: rows are produced by a deterministic ``row_source(rid)``
  function with a copy-on-write overlay for updates.  This is how the
  multi-gigabyte TPC-C/TPC-H fact tables are represented without holding
  them in Python memory — only their *addresses* matter to the simulated
  caches (DESIGN.md §1, scaling substitutions).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from ..simulator.addresses import PAGE_SIZE, AddressSpace, Region
from .page import PageFormat, PageLayout
from .schema import Schema

#: Pages allocated per extent.
EXTENT_PAGES = 256


class HeapFile:
    """A heap of fixed-width records for one relation.

    Args:
        space: Address space to allocate page extents from.
        schema: Relation schema.
        name: Relation name (labels the address regions).
        layout: NSM or PAX page layout.
        n_virtual_rows: If > 0, the file is virtual with this many rows.
        row_source: Generator for virtual rows; required when
            ``n_virtual_rows`` > 0.
        row_block_source: Optional generator of a page of virtual rows,
            ``(start, stop) -> list``, row-for-row identical to
            ``row_source``.

    Pages are generated on demand: :meth:`page_rows` and
    :meth:`scan_addr_block` build a page on every call and keep nothing,
    so no mutation needs to invalidate them.  The only memo is the
    per-rid ``_row_cache`` of generated virtual rows, filled by
    :meth:`get` and by :meth:`page_rows` when there is no
    ``row_block_source``.

    Neither generator may reference the table's owner (say, a bound
    method of the workload object whose database holds this file): the
    file keeps its generators for its whole life, so the owner would
    close a reference cycle through it.  The engine is dead weight once
    its traces are built, and only reference counting frees it promptly;
    the simulation loops allocate too few containers to trigger the
    cyclic collector.  Bind plain functions to the sizes they read
    (``functools.partial``) instead.
    """

    def __init__(
        self,
        space: AddressSpace,
        schema: Schema,
        name: str,
        layout: PageLayout = PageLayout.NSM,
        n_virtual_rows: int = 0,
        row_source: Callable[[int], tuple] | None = None,
        row_block_source: Callable[[int, int], list] | None = None,
    ):
        if n_virtual_rows > 0 and row_source is None:
            raise ValueError("virtual heap files need a row_source")
        self._space = space
        self.schema = schema
        self.name = name
        self.format = PageFormat(schema, layout)
        self._extents: list[Region] = []
        self._rows: list[tuple] = []
        self._virtual_rows = n_virtual_rows
        self._row_source = row_source
        self._overlay: dict[int, tuple] = {}
        # Generated virtual rows are deterministic, so memoize them: the
        # DSS clients re-scan shared chunks many times, and regenerating a
        # row costs far more than a dict hit.  Bounded by the table size
        # (the same rows a materialized heap would hold outright); writes
        # land in the overlay, never the cache.
        self._row_cache: dict[int, tuple] = {}
        # An optional ``row_block_source(start, stop)`` generates a whole
        # page of virtual rows in one call (amortizing the per-row
        # generator overhead) for the fused scan drains.
        self._row_block_source = row_block_source
        if n_virtual_rows:
            self._reserve_pages(self.n_pages)

    # ------------------------------------------------------------------ #
    # Geometry                                                            #
    # ------------------------------------------------------------------ #

    @property
    def is_virtual(self) -> bool:
        """True for generator-backed files."""
        return self._virtual_rows > 0

    @property
    def n_rows(self) -> int:
        """Row count."""
        return self._virtual_rows if self.is_virtual else len(self._rows)

    @property
    def n_pages(self) -> int:
        """Pages needed for the current row count."""
        cap = self.format.capacity
        return (self.n_rows + cap - 1) // cap

    def _reserve_pages(self, n_pages: int) -> None:
        have = len(self._extents) * EXTENT_PAGES
        while have < n_pages:
            ext = self._space.alloc_pages(
                f"table:{self.name}:x{len(self._extents)}", EXTENT_PAGES
            )
            self._extents.append(ext)
            have += EXTENT_PAGES

    def page_base(self, page_no: int) -> int:
        """Base address of page ``page_no``.

        Raises:
            IndexError: if the page has not been allocated.
        """
        ext_idx, off = divmod(page_no, EXTENT_PAGES)
        if ext_idx >= len(self._extents):
            raise IndexError(f"{self.name}: page {page_no} not allocated")
        return self._extents[ext_idx].base + off * PAGE_SIZE

    def locate(self, rid: int) -> tuple[int, int]:
        """Map a row id to (page_no, slot)."""
        return divmod(rid, self.format.capacity)

    def record_addr(self, rid: int) -> int:
        """Address of the record's first byte."""
        page_no, slot = self.locate(rid)
        return self.format.record_addr(self.page_base(page_no), slot)

    def field_addr(self, rid: int, col: int) -> int:
        """Address of one field of the record."""
        page_no, slot = self.locate(rid)
        return self.format.field_addr(self.page_base(page_no), slot, col)

    def record_lines(self, rid: int) -> list[int]:
        """Line-aligned addresses covering the whole record."""
        page_no, slot = self.locate(rid)
        return self.format.record_lines(self.page_base(page_no), slot)

    # ------------------------------------------------------------------ #
    # Row storage                                                         #
    # ------------------------------------------------------------------ #

    def append(self, row: tuple) -> int:
        """Append a row; returns its rid.  Materialized files only."""
        if self.is_virtual:
            raise TypeError(f"{self.name}: cannot append to a virtual heap")
        if len(row) != self.schema.n_columns:
            raise ValueError(
                f"{self.name}: row arity {len(row)} != "
                f"{self.schema.n_columns}"
            )
        rid = len(self._rows)
        self._rows.append(tuple(row))
        self._reserve_pages(self.n_pages)
        return rid

    def get(self, rid: int) -> tuple:
        """Fetch a row by rid.

        Raises:
            IndexError: for an out-of-range rid.
        """
        if self._virtual_rows:
            if not 0 <= rid < self._virtual_rows:
                raise IndexError(f"{self.name}: rid {rid} out of range")
            row = self._overlay.get(rid)
            if row is None:
                cache = self._row_cache
                row = cache.get(rid)
                if row is None:
                    row = cache[rid] = self._row_source(rid)
            return row
        if not 0 <= rid < len(self._rows):
            raise IndexError(f"{self.name}: rid {rid} out of range")
        return self._rows[rid]

    def set_field(self, rid: int, col: int, value) -> tuple:
        """Update one field in place; returns the new row."""
        old = self.get(rid)
        new = old[:col] + (value,) + old[col + 1:]
        if self.is_virtual:
            self._overlay[rid] = new
        else:
            self._rows[rid] = new
        return new

    def page_rows(self, page_no: int) -> list[tuple]:
        """All rows of one page as a fresh list, built on every call.

        The rows are value-equal to what :meth:`get` yields (and the very
        same tuple objects unless a ``row_block_source`` regenerates the
        page wholesale), so every :meth:`append` and :meth:`set_field`
        shows up in the next call.
        """
        start = page_no * self.format.capacity
        stop = min(start + self.format.capacity, self.n_rows)
        if self._virtual_rows and not self._overlay:
            src = self._row_block_source
            if src is not None:
                return src(start, stop)
            # No per-rid bounds checks or overlay lookups.
            cache = self._row_cache
            cget = cache.get
            gen = self._row_source
            block = []
            app = block.append
            for rid in range(start, stop):
                row = cget(rid)
                if row is None:
                    row = cache[rid] = gen(rid)
                app(row)
            return block
        get = self.get
        return [get(rid) for rid in range(start, stop)]

    def scan_addr_block(self, page_no: int) -> list[int]:
        """The NSM scan reference addresses of one page, in row order.

        One record address per row — plus the second-line address for a
        record spanning two cache lines — exactly the per-row reference
        sequence ``SeqScan`` emits.  Built on every call; fused scan loops
        extend the trace's address column with the block wholesale.
        """
        fmt = self.format
        start = page_no * fmt.capacity
        n = max(0, min(fmt.capacity, self.n_rows - start))
        addr = fmt.record_addr(self.page_base(page_no), 0)
        width = self.schema.row_width
        heads = range(addr, addr + n * width, width)
        if width <= 64:
            return list(heads)
        block = [0] * (2 * n)
        block[::2] = heads
        block[1::2] = range(addr + 64, addr + 64 + n * width, width)
        return block

    def scan(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, tuple]]:
        """Yield (rid, row) for rids in [start, stop)."""
        stop = self.n_rows if stop is None else min(stop, self.n_rows)
        for rid in range(start, stop):
            yield rid, self.get(rid)
