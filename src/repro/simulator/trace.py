"""Memory-reference traces: the interface between the DB engine and machines.

The engine runs each workload once and records, per client (= per hardware
context), a sequence of *events*.  Each event is "execute ``icount``
instructions from code region ``region``, then perform one data reference to
``addr`` with ``flags``".  Machines replay these traces under a timing model.

Traces are **columnar** (DESIGN.md §11): an address column and an
event-kind column.  ``addrs[i]`` is the byte address of reference ``i``,
stored as ``array('I')`` when every address of the trace fits in 32 bits
and as ``array('Q')`` otherwise.  ``kinds[i]`` indexes the trace's event
table, ``events``: a tuple of the distinct decoded ``(icount, flags,
region)`` triples of the trace, ordered by their packed word.  A trace has
a few dozen distinct triples, so ``kinds`` is ``array('B')`` (``'H'``
past 256 triples, ``'I'`` past 65,536): five bytes per event in all the
study bundles, where two packed 64-bit columns took sixteen.

The builders still append one packed word per event
(``icount << 24 | region << 8 | flags``, :func:`pack_meta`) — one integer
op plus one ``array('Q').append`` — and :meth:`TraceBuilder.build`
interns them into the table once.  The hot replay loops decode an event
with one ``events[kinds[i]]`` unpack.

Traces are cyclic: steady-state workloads (a client submitting transactions
forever) are represented by a finite trace replayed in a loop, mirroring
the paper's SimFlex warm-then-measure sampling windows.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field

#: The reference writes the line (dirty it; relevant to coherence/writeback).
FLAG_WRITE = 0x1
#: The reference is data-dependent on the previous one (pointer chasing):
#: an out-of-order core cannot overlap its miss latency with other misses.
FLAG_DEPENDENT = 0x2
#: The reference executes in kernel/system context (scheduling, I/O stubs).
FLAG_KERNEL = 0x4
#: The compute block preceding this reference starts a new code module
#: (operator switch): the instruction-fetch model jumps, defeating the
#: stream buffer for the first lines.
FLAG_CODE_JUMP = 0x8
#: The reference belongs to a sequential scan stream: spatial locality
#: lets an out-of-order core's memory system stream it from DRAM (the
#: paper's [26] spatial-memory-streaming observation), even when the
#: per-tuple decode is dependent.  Only long (off-chip) latencies benefit.
FLAG_STREAM = 0x10

#: Packed-event layout: ``word = icount << 24 | region << 8 | flags``.
#: 8 flag bits, 16 region-id bits (TraceBuilder.register_code enforces the
#: cap), and 40 bits of icount headroom (icount itself is clamped to the
#: 32-bit storage range, so packing can never overflow 64 bits).  The
#: packed word is the builders' append format and the event table's sort
#: key; a built trace stores the decoded triples.
META_ICOUNT_SHIFT = 24
META_REGION_SHIFT = 8
META_REGION_MASK = 0xFFFF
META_FLAGS_MASK = 0xFF

#: Largest icount one event can carry (32-bit storage range).
MAX_EVENT_ICOUNT = 0xFFFF_FFFF


def pack_meta(icount: int, flags: int = 0, region: int = 0) -> int:
    """Pack one event's non-address fields into a 64-bit word."""
    if icount < 0:
        raise ValueError(f"negative icount {icount}")
    if icount > MAX_EVENT_ICOUNT:
        icount = MAX_EVENT_ICOUNT
    return (icount << META_ICOUNT_SHIFT
            | (region & META_REGION_MASK) << META_REGION_SHIFT
            | (flags & META_FLAGS_MASK))


def unpack_meta(word: int) -> tuple[int, int, int]:
    """The ``(icount, flags, region)`` triple a packed word encodes."""
    return (word >> META_ICOUNT_SHIFT, word & META_FLAGS_MASK,
            word >> META_REGION_SHIFT & META_REGION_MASK)


def _kind_column(index: dict[int, int], words: array) -> array:
    """``words`` mapped through ``index``, in the narrowest ``array`` that
    holds the largest kind: ``'B'``, ``'H'`` or ``'I'``."""
    kinds = map(index.__getitem__, words)
    if len(index) <= 0x100:
        # bytes() consumes the map in C; array('B', bytes) is one copy.
        return array("B", bytes(kinds))
    return array("H" if len(index) <= 0x1_0000 else "I", list(kinds))


def _address_column(addrs: array) -> array:
    """An ``array('Q')`` of addresses narrowed to ``array('I')`` when
    every address fits in 32 bits, else a copy of it."""
    try:
        return array("I", addrs)
    except OverflowError:
        return array("Q", addrs)


@dataclass(frozen=True)
class CodeFootprint:
    """Static description of one code region referenced by a trace.

    Attributes:
        name: Debug label (operator or transaction routine name).
        base: Byte address of the first instruction line.
        n_lines: Instruction-cache lines spanned by the routine.
    """

    name: str
    base: int
    n_lines: int


class Trace:
    """An immutable per-context event sequence plus workload metadata.

    The physical representation is an address column, an event-kind
    column and the event table the kinds index (DESIGN.md §11).  A trace
    keeps no per-event derived state: the cores, and every analysis,
    derive what they need from the event table where they use it
    (DESIGN.md §14).

    Attributes:
        name: Debug label, e.g. ``"tpcc-client-3"``.
        ilp: Instruction-level parallelism an out-of-order core extracts
            from the stream (limits a wide core's issue rate).
        ilp_inorder: ILP an in-order core achieves on the same stream
            (RAW hazards stall what OoO scheduling would reorder around).
        branch_mpki: Branch mispredictions per kilo-instruction (drives the
            "other stalls" component).
        footprints: Code regions indexed by an event's region field.
        addrs: Flat address column (``array('I')`` or ``array('Q')``).
        kinds: Flat event-kind column (``array('B')``, ``'H'`` or ``'I'``),
            indexing ``events``.
        events: Distinct ``(icount, flags, region)`` triples, ordered by
            packed word.
    """

    __slots__ = (
        "name",
        "ilp",
        "ilp_inorder",
        "branch_mpki",
        "footprints",
        "addrs",
        "kinds",
        "events",
        "_stats",
    )

    def __init__(
        self,
        name: str,
        addrs,
        kinds,
        events: tuple[tuple[int, int, int], ...],
        footprints: list[CodeFootprint],
        ilp: float = 1.5,
        branch_mpki: float = 5.0,
        ilp_inorder: float | None = None,
    ):
        if len(addrs) != len(kinds):
            raise ValueError("trace columns must have equal lengths")
        self.name = name
        self.addrs = addrs
        self.kinds = kinds
        self.events = events
        self.footprints = footprints
        self.ilp = ilp
        self.ilp_inorder = ilp * 0.75 if ilp_inorder is None else ilp_inorder
        self.branch_mpki = branch_mpki
        # Aggregate scans run lazily, once, on first use: workload build
        # never pays for statistics an experiment may not ask for.
        self._stats = None

    def __len__(self) -> int:
        return len(self.addrs)

    # -- aggregate statistics ------------------------------------------ #

    def _scan(self) -> tuple[int, float]:
        stats = self._stats
        if stats is None:
            total = dep = 0
            events = self.events
            for k, count in Counter(self.kinds).items():
                icount, flags, _ = events[k]
                total += icount * count
                if flags & FLAG_DEPENDENT:
                    dep += count
            n = len(self.kinds)
            stats = self._stats = (total, dep / n if n else 0.0)
        return stats

    @property
    def total_instructions(self) -> int:
        """Instructions retired in one full pass over the trace."""
        return self._scan()[0]

    def dependent_fraction(self) -> float:
        """Fraction of references flagged DEPENDENT (pointer chasing)."""
        return self._scan()[1]

    def distinct_lines(self) -> int:
        """Number of distinct cache lines referenced (data only)."""
        return len({a >> 6 for a in self.addrs})


class TraceBuilder:
    """Accumulates events for one hardware context.

    The engine-side tracer calls :meth:`event` (or appends packed words to
    the public ``addr_column``/``meta_column`` columns directly — the fused
    builder loops do) once per modeled data reference; :meth:`build`
    freezes the result into flat columns.  Both columns are
    ``array('Q')``: eight bytes per event each, where a list holds an
    eight-byte pointer to a separate int object per event.  :meth:`build`
    narrows the addresses and interns the packed words into the event
    table.
    """

    def __init__(self, name: str, ilp: float = 1.5, branch_mpki: float = 5.0,
                 ilp_inorder: float | None = None):
        self.name = name
        self.ilp = ilp
        self.ilp_inorder = ilp_inorder
        self.branch_mpki = branch_mpki
        self.addr_column = array("Q")
        self.meta_column = array("Q")
        self._footprints: list[CodeFootprint] = []
        self._footprint_ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.addr_column)

    def register_code(self, name: str, base: int, n_lines: int) -> int:
        """Register (or look up) a code footprint; returns its region id."""
        existing = self._footprint_ids.get(name)
        if existing is not None:
            return existing
        region_id = len(self._footprints)
        if region_id > 0xFFFF:
            raise ValueError("too many code regions for a 16-bit region id")
        self._footprints.append(CodeFootprint(name=name, base=base, n_lines=n_lines))
        self._footprint_ids[name] = region_id
        return region_id

    def event(self, icount: int, addr: int, flags: int = 0, region: int = 0) -> None:
        """Record one event: ``icount`` instructions, then a data reference.

        Args:
            icount: Instructions retired before the reference (>= 0; clamped
                to the 32-bit storage range).
            addr: Byte address of the data reference.
            flags: OR of ``FLAG_*`` constants.
            region: Code region id from :meth:`register_code`.
        """
        self.meta_column.append(pack_meta(icount, flags, region))
        self.addr_column.append(addr)

    def build(self) -> Trace:
        """Freeze the builder into an immutable Trace.

        The distinct packed words, sorted, become the event table, so
        equal event streams intern to equal ``kinds`` columns.
        """
        words = self.meta_column
        table = sorted(set(words))
        index = {w: k for k, w in enumerate(table)}
        return Trace(
            name=self.name,
            addrs=_address_column(self.addr_column),
            kinds=_kind_column(index, words),
            events=tuple(map(unpack_meta, table)),
            footprints=list(self._footprints),
            ilp=self.ilp,
            ilp_inorder=self.ilp_inorder,
            branch_mpki=self.branch_mpki,
        )


@dataclass
class Workload:
    """A bundle of per-context traces ready to run on a machine.

    Attributes:
        name: Workload label, e.g. ``"tpch-saturated"``.
        traces: One trace per client / software thread.  A machine maps
            these onto hardware contexts; if there are more contexts than
            traces the extra contexts idle (unsaturated regime), if there
            are more traces than contexts the surplus queue (saturated).
        kind: ``"oltp"`` or ``"dss"`` (used only for reporting).
        saturated: Whether this bundle represents a saturated configuration.
    """

    name: str
    traces: list[Trace]
    kind: str = "dss"
    saturated: bool = True
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.traces:
            raise ValueError(f"workload {self.name!r} has no traces")

    @property
    def n_clients(self) -> int:
        """Number of client traces in the bundle."""
        return len(self.traces)

    def total_instructions(self) -> int:
        """Instructions in one pass over every trace."""
        return sum(t.total_instructions for t in self.traces)
