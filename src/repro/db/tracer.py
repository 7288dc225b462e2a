"""The engine-to-simulator bridge: record memory references while executing.

Every storage and execution component calls into the active tracer:

- :meth:`MemoryTracer.enter` when control moves into a code module (so the
  instruction-fetch model sees the real code-footprint switching pattern);
- :meth:`MemoryTracer.compute` to charge instructions of computation;
- :meth:`MemoryTracer.data` when a modeled memory address is touched.

Events are emitted straight into the trace builder's columns: one packed
64-bit meta word (``icount << 24 | region << 8 | flags``) plus one
address per reference, which :meth:`TraceBuilder.build` interns into the
trace's event table (DESIGN.md §11).  The fused builder loops in
:mod:`repro.db.exec.fused` bypass the per-call interface entirely — they
obtain the raw column appenders via :meth:`MemoryTracer.emitters` and the
packed region bits via :meth:`MemoryTracer.region_bits`, emit precomputed
meta words, and hand the carried state back through
:meth:`MemoryTracer.sync`.

A :class:`NullTracer` with the same interface lets the engine run untraced
(result-correctness tests, staged-executor comparisons) at full speed.
"""

from __future__ import annotations

from ..simulator.addresses import AddressSpace, Region
from ..simulator.trace import (
    FLAG_DEPENDENT,
    FLAG_KERNEL,
    FLAG_STREAM,
    FLAG_WRITE,
    MAX_EVENT_ICOUNT,
    Trace,
    TraceBuilder,
)
from .costs import CODE_FOOTPRINTS


class CodeRegistry:
    """Allocates each code module's footprint once, in the address space."""

    def __init__(self, space: AddressSpace):
        self._space = space
        self._regions: dict[str, Region] = {}

    def region(self, name: str) -> Region:
        """The code region for module ``name`` (allocated on first use).

        Unknown modules get a default 4 KB footprint.
        """
        region = self._regions.get(name)
        if region is None:
            size = CODE_FOOTPRINTS.get(name, 4 * 1024)
            region = self._space.alloc(f"code:{name}", size)
            self._regions[name] = region
        return region


class NullTracer:
    """A do-nothing tracer: the engine runs, nothing is recorded."""

    enabled = False

    def enter(self, code_name: str) -> None:
        """Ignore a code-module switch."""

    def compute(self, n_instr: int) -> None:
        """Ignore charged computation."""

    def data(self, addr: int, write: bool = False, dependent: bool = False,
             kernel: bool = False, stream: bool = False) -> None:
        """Ignore a data reference."""


class MemoryTracer(NullTracer):
    """Records one client's execution as a columnar simulator trace.

    Usage::

        tracer = MemoryTracer(registry, "tpcc-client-0", ilp=1.4,
                              branch_mpki=7.0)
        ... run the client's queries/transactions with this tracer ...
        trace = tracer.finish()

    Instructions charged via :meth:`compute` accumulate until the next
    :meth:`data` call flushes them as one trace event.  Trailing computation
    with no following reference is attached to a final dummy reference to
    the client's scratch area.
    """

    enabled = True

    def __init__(self, registry: CodeRegistry, name: str,
                 ilp: float = 1.5, branch_mpki: float = 5.0,
                 ilp_inorder: float | None = None):
        self._registry = registry
        self._builder = TraceBuilder(name, ilp=ilp, branch_mpki=branch_mpki,
                                     ilp_inorder=ilp_inorder)
        self._meta_append = self._builder.meta_column.append
        self._addr_append = self._builder.addr_column.append
        self._pending = 0
        #: code name -> packed ``region_id << 8`` bits, ready to OR into
        #: a meta word (the enter() fast path is one dict lookup).
        self._region_bits: dict[str, int] = {}
        self._current_bits = self.region_bits("rt.kernel")
        self._finished = False

    def region_bits(self, code_name: str) -> int:
        """Packed ``region_id << 8`` bits for ``code_name`` (registering
        the footprint on first use)."""
        bits = self._region_bits.get(code_name)
        if bits is None:
            region = self._registry.region(code_name)
            rid = self._builder.register_code(code_name, region.base,
                                              region.lines)
            bits = self._region_bits[code_name] = rid << 8
        return bits

    # ------------------------------------------------------------------ #
    # Recording interface                                                 #
    # ------------------------------------------------------------------ #

    def enter(self, code_name: str) -> None:
        """Move control into code module ``code_name``."""
        bits = self._region_bits.get(code_name)
        self._current_bits = bits if bits is not None \
            else self.region_bits(code_name)

    def compute(self, n_instr: int) -> None:
        """Charge ``n_instr`` instructions before the next data reference."""
        if n_instr < 0:
            raise ValueError(f"negative instruction count {n_instr}")
        self._pending += n_instr

    def data(self, addr: int, write: bool = False, dependent: bool = False,
             kernel: bool = False, stream: bool = False) -> None:
        """Record a data reference at ``addr``, flushing pending compute."""
        flags = 0
        if write:
            flags = FLAG_WRITE
        if dependent:
            flags |= FLAG_DEPENDENT
        if kernel:
            flags |= FLAG_KERNEL
        if stream:
            flags |= FLAG_STREAM
        # Charge a minimal instruction for the access itself so no event
        # carries zero work.  The meta word is packed inline (same clamp
        # as pack_meta) — this method is called once per recorded
        # reference, the single hottest call of an unfused trace build.
        icount = self._pending + 1
        self._pending = 0
        self._meta_append(
            (icount if icount <= MAX_EVENT_ICOUNT else MAX_EVENT_ICOUNT)
            << 24 | self._current_bits | flags)
        self._addr_append(addr)

    # ------------------------------------------------------------------ #
    # Fused-loop interface                                                #
    # ------------------------------------------------------------------ #

    def emitters(self):
        """The raw ``(meta_append, addr_append)`` column appenders.

        A fused builder loop emits packed meta words directly through
        these, then must call :meth:`sync` before control returns to the
        per-call interface.
        """
        return self._meta_append, self._addr_append

    def columns(self):
        """The raw ``(meta, addr)`` ``array('Q')`` columns, for bulk extends.

        Fused loops whose per-page address sequence is deterministic
        (a pure NSM scan) extend the address column with one precomputed
        block per page instead of appending row by row.
        """
        return self._builder.meta_column, self._builder.addr_column

    def sync(self, pending: int, region_bits: int) -> None:
        """Restore carried tracer state after a fused loop.

        Args:
            pending: Computation charged but not yet flushed by an event.
            region_bits: Packed ``region_id << 8`` of the module the fused
                loop logically left control in.
        """
        self._pending = pending
        self._current_bits = region_bits

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def finish(self) -> Trace:
        """Freeze and return the trace.  May be called once."""
        if self._finished:
            raise RuntimeError("tracer already finished")
        self._finished = True
        if self._pending:
            # Attach trailing computation to a final reference into the
            # kernel's run queue (an address every client touches).
            region = self._registry.region("rt.kernel")
            self.data(region.base, kernel=True)
        return self._builder.build()
