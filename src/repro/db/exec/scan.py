"""The scan operator: sequential heap scans.

The sequential scan is the DSS workhorse: page after page, record after
record, with *independent* (prefetchable) references — the access pattern
an out-of-order core overlaps well and a single lean context cannot.
"""

from __future__ import annotations

from collections.abc import Iterator

from .. import costs
from ..heap import HeapFile
from ..page import PageLayout
from .base import Operator, QueryContext


class SeqScan(Operator):
    """Full (or range-restricted) sequential scan of a heap file.

    Args:
        ctx: Query context.
        heap: The heap file to scan.
        columns: Column names actually read.  With a PAX layout only the
            named columns' minipages are referenced (the PAX benefit);
            with NSM the whole record's lines are touched regardless.
        start/stop: Row-id range to scan (defaults to the whole file).
    """

    code_region = "exec.seqscan"

    def __init__(self, ctx: QueryContext, heap: HeapFile,
                 columns: list[str] | None = None,
                 start: int = 0, stop: int | None = None):
        super().__init__(ctx, heap.schema)
        self.heap = heap
        self._start = start
        self._stop = heap.n_rows if stop is None else min(stop, heap.n_rows)
        if columns is None:
            self._col_idx = list(range(heap.schema.n_columns))
        else:
            self._col_idx = [heap.schema.column_index(c) for c in columns]
        self._pax = heap.format.layout is PageLayout.PAX

    def rows(self) -> Iterator[tuple]:
        tracer = self.ctx.tracer
        heap = self.heap
        fmt = heap.format
        capacity = fmt.capacity
        pool = self.ctx.pool
        # This loop body runs once per scanned tuple — the single hottest
        # path of a DSS trace build — so hoist every lookup out of it.
        stop = self._stop
        pax = self._pax
        col_idx = self._col_idx
        compute = tracer.compute
        data = tracer.data
        get = heap.get
        field_addr = fmt.field_addr
        record_addr = fmt.record_addr
        width = heap.schema.row_width
        scan_next = costs.SCAN_NEXT
        rid = self._start
        while rid < stop:
            page_no, slot = divmod(rid, capacity)
            base = pool.fetch(heap, page_no, tracer)
            page_end = min(stop, (page_no + 1) * capacity)
            self._enter()
            page_off = page_no * capacity
            while rid < page_end:
                slot = rid - page_off
                compute(scan_next)
                # Tuple-at-a-time iteration serializes through the slot
                # directory and record decode: five sixths of the record
                # accesses carry a true dependence the out-of-order core
                # cannot reorder around ("tight data dependencies").
                dep = rid % 6 != 0
                # Positional tracer args (write, dependent, kernel, stream):
                # keyword passing is measurable at one call per reference.
                if pax:
                    for col in col_idx:
                        data(field_addr(base, slot, col), False, dep,
                             False, True)
                else:
                    addr = record_addr(base, slot)
                    data(addr, False, dep, False, True)
                    # Wide NSM records span extra lines; touch them too.
                    if width > 64:
                        for extra in range(64, width, 64):
                            data(addr + extra, False, False, False, True)
                yield get(rid)
                rid += 1
