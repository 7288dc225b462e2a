"""Buffer pool: the page directory every page access goes through.

The studied workloads are memory-resident (the paper tunes both benchmarks
"to minimize I/O overhead"), so the pool never does I/O here; its role in
the characterization is the *memory traffic* of page access: a hash-table
lookup in the page directory (a pointer-chasing, hot, shared structure) and
pin/unpin bookkeeping on the frame header.  Clock eviction is implemented
and tested for completeness, but the workloads size the pool to hold their
data set, as the paper's configuration does.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..simulator.addresses import AddressSpace
from . import costs
from .heap import HeapFile
from .tracer import NullTracer

#: Bytes per page-directory bucket (pointer + latch).
_BUCKET_BYTES = 16
#: Bytes per frame descriptor (pin count, dirty bit, clock ref bit, LSN).
_FRAME_BYTES = 64


@dataclass
class BufferStats:
    """Counters for buffer pool activity."""

    fetches: int = 0
    directory_hits: int = 0
    installs: int = 0
    evictions: int = 0


class BufferPool:
    """A directory of resident pages with clock replacement.

    Frames are identified with the page's own address-space location
    (memory-resident identity mapping); what the pool adds is the directory
    and frame-metadata traffic plus replacement policy.

    Args:
        space: Address space for the directory and frame-metadata arrays.
        capacity_pages: Maximum resident pages before clock eviction.
        n_buckets: Page-directory hash buckets.
    """

    def __init__(self, space: AddressSpace, capacity_pages: int = 1 << 20,
                 n_buckets: int = 4096):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages
        self._n_buckets = n_buckets
        self._dir_region = space.alloc("bufpool:directory",
                                       n_buckets * _BUCKET_BYTES)
        self._frame_region = space.alloc(
            "bufpool:frames", min(capacity_pages, 1 << 16) * _FRAME_BYTES
        )
        self._resident: dict[tuple[str, int], int] = {}
        self._clock: list[tuple[str, int]] = []
        self._clock_hand = 0
        self._ref_bit: dict[tuple[str, int], bool] = {}
        self.stats = BufferStats()

    # ------------------------------------------------------------------ #
    # Address helpers                                                     #
    # ------------------------------------------------------------------ #

    def _bucket_addr(self, key: tuple[str, int]) -> int:
        # crc32 rather than hash(): Python string hashing is salted per
        # process, which would break run-to-run trace determinism.
        bucket = zlib.crc32(f"{key[0]}:{key[1]}".encode()) % self._n_buckets
        return self._dir_region.base + bucket * _BUCKET_BYTES

    def _frame_addr(self, frame_no: int) -> int:
        span = self._frame_region.size // _FRAME_BYTES
        return self._frame_region.base + (frame_no % span) * _FRAME_BYTES

    # ------------------------------------------------------------------ #
    # Main interface                                                      #
    # ------------------------------------------------------------------ #

    def fetch(self, heap: HeapFile, page_no: int,
              tracer: NullTracer = NullTracer()) -> int:
        """Fetch a page, returning its base address.

        Emits the directory lookup (dependent pointer chase) and the frame
        pin write to the tracer, and installs/evicts per clock replacement.
        """
        key = (heap.name, page_no)
        self.stats.fetches += 1
        tracer.enter("storage.buffer")
        tracer.compute(costs.BUFFER_LOOKUP)
        tracer.data(self._bucket_addr(key), dependent=True)
        if key in self._resident:
            self.stats.directory_hits += 1
        else:
            self._install(key)
        frame_no = self._resident[key]
        self._ref_bit[key] = True
        tracer.compute(costs.BUFFER_PIN)
        tracer.data(self._frame_addr(frame_no), write=True)
        return heap.page_base(page_no)

    # ------------------------------------------------------------------ #
    # Replacement                                                         #
    # ------------------------------------------------------------------ #

    def _install(self, key: tuple[str, int]) -> None:
        if len(self._resident) >= self.capacity_pages:
            self._evict_one()
        self._resident[key] = len(self._clock)
        self._clock.append(key)
        self._ref_bit[key] = True
        self.stats.installs += 1

    def _evict_one(self) -> None:
        """Second-chance clock sweep: evicts the first resident page
        whose reference bit is clear, clearing bits as it passes."""
        while True:
            key = self._clock[self._clock_hand]
            if key in self._resident:
                if self._ref_bit.get(key, False):
                    self._ref_bit[key] = False
                else:
                    del self._resident[key]
                    self._ref_bit.pop(key, None)
                    self.stats.evictions += 1
                    self._compact_if_sparse()
                    return
            self._clock_hand = (self._clock_hand + 1) % len(self._clock)

    def _compact_if_sparse(self) -> None:
        """Rebuild the clock ring when most entries are stale."""
        if len(self._clock) > 4 * max(1, len(self._resident)):
            self._clock = [k for k in self._clock if k in self._resident]
            self._clock_hand = 0
            for frame_no, key in enumerate(self._clock):
                self._resident[key] = frame_no
