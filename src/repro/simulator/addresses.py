"""Synthetic address space for the trace-driven simulator.

The database engine does not manipulate real machine memory; it allocates
*modeled* objects (pages, index nodes, code segments, thread-local scratch)
inside a synthetic address space and emits references to those addresses.
Only the addresses matter to the cache hierarchy, so the address space can be
gigabytes wide while the Python process stays small.

Addresses are unbounded integers here.  A built trace stores them in 32
bits when they all fit, as every bundle at scale 1.0 does (TPC-C ends at
``0x3c27_0000``), and in 64 bits otherwise: TPC-C at scale 4.0 reaches
``0x2_c588_e000`` (DESIGN.md §11).

Layout conventions
------------------
The allocator hands out non-overlapping *regions*.  By convention the engine
places code at low addresses, global/heap structures next, and per-client
scratch (stack-like) regions at high addresses.  Nothing in the simulator
depends on the convention; it only aids debugging.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cache line size in bytes.  All caches in the hierarchy share it, as in the
#: machines the paper studies (64B lines were universal in the Power5 /
#: UltraSPARC era for L1/L2).
LINE_SIZE = 64
LINE_SHIFT = 6

#: Database page size in bytes (8 KB, the common commercial-DBMS default).
PAGE_SIZE = 8192
PAGE_SHIFT = 13

#: Lines per database page.
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE


@dataclass(frozen=True)
class Region:
    """A contiguous, exclusively-owned range of the synthetic address space.

    Attributes:
        name: Debugging label ("code:scan", "table:lineitem", ...).
        base: First byte address of the region.
        size: Region length in bytes.
    """

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte address of the region."""
        return self.base + self.size

    @property
    def lines(self) -> int:
        """Number of cache lines the region spans."""
        return (self.size + LINE_SIZE - 1) // LINE_SIZE

    def addr(self, offset: int) -> int:
        """Return the absolute address of byte ``offset`` within the region.

        Raises:
            ValueError: if the offset falls outside the region.
        """
        if not 0 <= offset < self.size:
            raise ValueError(
                f"offset {offset} outside region {self.name!r} of size {self.size}"
            )
        return self.base + offset


class AddressSpace:
    """Bump allocator over the synthetic 64-bit address space.

    Regions are aligned to page boundaries so that distinct database objects
    never share a cache line (false sharing is modelled explicitly where the
    engine wants it, by allocating objects into the same region).
    """

    def __init__(self, base: int = 0x1000_0000):
        self._next = base

    def alloc(self, name: str, size: int, align: int = PAGE_SIZE) -> Region:
        """Allocate ``size`` bytes aligned to ``align`` and return the Region.

        Args:
            name: Debugging label for the region.
            size: Number of bytes; must be positive.
            align: Power-of-two alignment (defaults to the page size).

        Raises:
            ValueError: on a non-positive size or non-power-of-two alignment.
        """
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        if align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        base = (self._next + align - 1) & ~(align - 1)
        region = Region(name=name, base=base, size=size)
        self._next = base + size
        return region

    def alloc_pages(self, name: str, npages: int) -> Region:
        """Allocate ``npages`` database pages as one region."""
        return self.alloc(name, npages * PAGE_SIZE)
