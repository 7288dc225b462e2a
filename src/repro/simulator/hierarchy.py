"""Memory hierarchies: per-core L1s over a shared, banked on-chip L2 (CMP).

This module implements the chip-multiprocessor hierarchy the paper's CMP
experiments use: private L1I/L1D per core, one shared L2 with a configurable
size/latency, banked ports with FIFO queueing (the Fig. 8 contention
mechanism), instruction stream buffers (the paper's I-stall mitigation,
Section 4), and an optional stride prefetcher (Section 3 discussion).

The SMP variant with private L2s and MESI coherence lives in
:mod:`repro.simulator.coherence`; both expose the same access interface so
cores and machines are hierarchy-agnostic:

- ``data_access(core, addr, write, now)    -> (latency, level)``
- ``instr_block(core, footprint, n_lines, jumped, now) -> (latency, level)``

Levels are small ints (:data:`L1` ... :data:`COH`) that the breakdown
accounting maps to stall categories.
"""

from __future__ import annotations

from array import array
from dataclasses import MISSING, dataclass, field, fields

from .cache import DIRTY, SetAssocCache
from . import cacti
from .topology import (
    HOME_INTERLEAVE_SHIFT,
    PARTITION_TAG_SHIFT,
    IslandTopology,
)

#: Access satisfied by the local L1 (no exposed stall; latency folded).
L1 = 0
#: Access satisfied by a sibling core's L1 (fast on-chip transfer, CMP only).
L1X = 1
#: Access satisfied by an on-chip L2 (the paper's "L2 hit").
L2 = 2
#: Access satisfied by off-chip memory.
MEM = 3
#: Access satisfied by a coherence transfer from a remote node (SMP only).
COH = 4

#: Human-readable names indexed by level constant.
LEVEL_NAMES = ("L1", "L1X", "L2", "MEM", "COH")


@dataclass
class HierarchyParams:
    """Knobs shared by the CMP and SMP hierarchies.

    Latency fields are in core cycles.  ``l2_latency`` of None means "derive
    from :func:`repro.simulator.cacti.l2_hit_latency` using
    ``l2_nominal_mb``"; experiments that fix the latency (the paper's
    "const" runs) set it explicitly.

    ``l2_nominal_mb`` is the paper-labelled size used for latency lookup and
    reporting; ``l2_mb`` is the actual simulated capacity
    (= nominal * scale, see DESIGN.md section 1 on scaling).
    """

    n_cores: int = 4
    l1i_kb: int = 32
    l1d_kb: int = 32
    l1_assoc: int = 2
    l1_latency: int = 2
    l2_mb: float = 16.0
    l2_nominal_mb: float = 16.0
    l2_assoc: int = 16
    l2_latency: int | None = None
    l2_banks: int = 4
    l2_occupancy: int = 2
    mem_latency: int = cacti.MEMORY_LATENCY
    l1_transfer_latency: int = 16
    coherence_latency: int = 260
    upgrade_latency: int = 120
    stream_buffers: bool = True
    isb_hide_cycles: int = 10
    isb_expose_frac: float = 0.25
    jump_bubble_cycles: int = 3
    stride_prefetch: bool = False

    def resolved_l2_latency(self) -> int:
        """L2 hit latency: explicit override or the Cacti model value."""
        if self.l2_latency is not None:
            return self.l2_latency
        return cacti.l2_hit_latency(self.l2_nominal_mb)


@dataclass
class HierarchyStats:
    """Aggregate counters a hierarchy exposes to the experiment layer.

    The ``remote_*`` counters only move on multi-socket (hardware
    islands) machines: accesses whose home island differed from the
    requester's, the extra cycles the remote paths charged, and the
    cross-island L1-to-L1 transfers.  They stay zero on single-socket
    machines, so pre-island documents and pickles simply lack them —
    :meth:`__setstate__` fills the defaults on load.
    """

    data_accesses: int = 0
    data_level_counts: list[int] = field(default_factory=lambda: [0] * 5)
    instr_blocks: int = 0
    instr_level_counts: list[int] = field(default_factory=lambda: [0] * 5)
    l2_queue_delay: int = 0
    l2_queued_accesses: int = 0
    coherence_misses: int = 0
    prefetch_covered: int = 0
    remote_accesses: int = 0
    remote_l1x: int = 0
    remote_extra_cycles: int = 0

    def reset(self) -> None:
        """Zero all counters (warm/measure boundary)."""
        self.data_accesses = 0
        self.data_level_counts = [0] * 5
        self.instr_blocks = 0
        self.instr_level_counts = [0] * 5
        self.l2_queue_delay = 0
        self.l2_queued_accesses = 0
        self.coherence_misses = 0
        self.prefetch_covered = 0
        self.remote_accesses = 0
        self.remote_l1x = 0
        self.remote_extra_cycles = 0

    def __setstate__(self, state: dict) -> None:
        # Pickles written before a counter existed restore with the
        # counter at its default instead of failing attribute lookups
        # later (the result cache carries such objects).
        self.__dict__.update(state)
        for f in fields(self):
            if f.name not in state:
                setattr(self, f.name,
                        f.default_factory() if f.default is MISSING
                        else f.default)

    def data_fraction(self, level: int) -> float:
        """Fraction of data accesses satisfied at ``level``."""
        if not self.data_accesses:
            return 0.0
        return self.data_level_counts[level] / self.data_accesses


class _CodePressure:
    """Tracks the recently-active instruction footprint of one core.

    The instruction-fetch model is analytic (DESIGN.md item on I-stalls):
    when the code regions a core's contexts recently executed exceed the
    L1I capacity, a fraction of control transfers land on evicted lines.
    This tiny LRU of (region base -> line count) tracks "recently executed"
    and yields that fraction.
    """

    __slots__ = ("_regions", "_capacity_lines", "_total", "miss_credit")

    def __init__(self, capacity_lines: int):
        self._regions: dict[int, int] = {}
        self._capacity_lines = capacity_lines
        self._total = 0
        #: Fractional accumulator: each jump adds (1 - resident fraction);
        #: a whole unit buys one real L2 fetch for the jump target.
        self.miss_credit = 0.0

    def touch(self, base: int, n_lines: int) -> float:
        """Record that the region at ``base`` ran.

        Returns:
            The *evicted fraction* of the active footprint: 0.0 while
            everything fits in the L1I, approaching 1.0 as the footprint
            grows far past it.
        """
        if base in self._regions:
            # Refresh recency (move to end of insertion order).
            self._total -= self._regions.pop(base)
        self._regions[base] = n_lines
        self._total += n_lines
        # Forget oldest regions beyond a generous window (4x L1I) so one-shot
        # code does not permanently inflate the footprint.
        while self._total > 4 * self._capacity_lines and len(self._regions) > 1:
            old_base = next(iter(self._regions))
            self._total -= self._regions.pop(old_base)
        if self._total <= self._capacity_lines:
            return 0.0
        return 1.0 - self._capacity_lines / self._total


class SharedL2Hierarchy:
    """The CMP hierarchy: private L1s, one shared banked L2, memory.

    Cross-L1 sharing is detected with an owner map maintained at L1 fill and
    eviction time; L1 copies are not kept precisely coherent (the timing
    effect of the omitted invalidations is negligible at 64 KB L1s — see
    DESIGN.md, "Key modelling decisions").
    """

    def __init__(self, params: HierarchyParams,
                 topology: IslandTopology | None = None):
        self.params = params
        self.l2_latency = params.resolved_l2_latency()
        n = params.n_cores
        self._l1d = [
            SetAssocCache(f"L1D-{i}", params.l1d_kb * 1024, params.l1_assoc)
            for i in range(n)
        ]
        l2_bytes = int(params.l2_mb * 1024 * 1024)
        self.l2 = SetAssocCache("L2", l2_bytes, params.l2_assoc)
        self._l1_owners: dict[int, int] = {}
        banks = params.l2_banks
        # The mask-based test alone (`banks & (banks - 1)`) wrongly accepts
        # 0 (0 & -1 == 0) and negatives, so range-check first.
        if not isinstance(banks, int) or banks < 1 or banks & (banks - 1):
            raise ValueError(
                f"l2_banks must be a power of two >= 1, got {banks!r}"
            )
        self._bank_free = [0.0] * banks
        self._bank_mask = banks - 1
        l1i_lines = params.l1i_kb * 1024 // 64
        self._code_pressure = [_CodePressure(l1i_lines) for i in range(n)]
        self._pf_last = [0] * n
        self._pf_stride = [0] * n
        self._pf_conf = [0] * n
        #: When set (an ``array('Q')`` of packed ``line << 1 | write``
        #: words), warm_block appends every L2 access it makes, so the
        #: warm machinery can capture a replayable warm state.
        self._warm_log: array | None = None
        # Hardware islands (DESIGN.md section 15).  An inactive topology
        # (None or 1 socket) leaves every hot path on its pre-island
        # code; the single `self._topo is None` test is the only cost.
        self._topo = topology if topology is not None and topology.active \
            else None
        if self._topo is not None:
            topo = self._topo
            cores_per_island = topo.island_cores(n)
            banks_per_island = topo.island_banks(banks)
            self._core_island = [c // cores_per_island for c in range(n)]
            self._cores_per_island = cores_per_island
            self._banks_per_island = banks_per_island
            self._island_bank_mask = banks_per_island - 1
            self._home_mask = topo.n_sockets - 1
            self._remote_l2_extra = \
                (topo.remote_l2_latency - 1.0) * self.l2_latency
            self._remote_mem_extra = \
                (topo.remote_mem_latency - 1.0) * params.mem_latency
            self._remote_l1x_extra = \
                (topo.remote_l2_latency - 1.0) * params.l1_transfer_latency
        #: Per-core line tags: 0 everywhere except under the
        #: island-partitioned placement, where each core's accesses are
        #: lifted into its island's private address space.
        self._line_tag = [0] * n
        self._partitioned = False
        self.stats = HierarchyStats()

    def set_placement(self, placement: str) -> None:
        """Configure data homing for a deployment placement.

        ``island-partitioned`` lifts each core's data lines into its
        island's private address space (tag = island << tag shift), so
        every access is home-local by construction and the home of a
        tagged line is read back from the tag.  The other placements
        keep the 64 KB address-range interleave.  No-op on single-socket
        hierarchies.
        """
        if self._topo is None:
            return
        if placement == "island-partitioned":
            self._line_tag = [
                island << PARTITION_TAG_SHIFT for island in self._core_island]
            self._partitioned = True
        else:
            self._line_tag = [0] * self.params.n_cores
            self._partitioned = False

    def _home_of(self, line: int) -> int:
        """Home island of a line (tag bits when partitioned, else the
        64 KB address-range interleave)."""
        if self._partitioned:
            return (line >> PARTITION_TAG_SHIFT) & self._home_mask
        return (line >> HOME_INTERLEAVE_SHIFT) & self._home_mask

    def warm_identity(self) -> tuple:
        """Extra warm-memo key components for islands machines.

        The warm state depends on the line tags (partitioned placement
        rewrites every line), so multi-socket warm snapshots must not
        collide with single-socket ones or with each other across
        placements.  Single-socket hierarchies contribute nothing,
        keeping pre-island memo keys byte-identical.
        """
        if self._topo is None:
            return ()
        return (self._topo.key(), tuple(self._line_tag))

    # ------------------------------------------------------------------ #
    # L2 bank port model                                                  #
    # ------------------------------------------------------------------ #

    def _l2_port(self, line: int, now: float) -> float:
        """Occupy the bank serving ``line`` at time ``now``.

        Returns the queueing delay (cycles spent waiting for the bank).
        Correlated miss bursts from many cores produce the growing queueing
        delays behind Fig. 8's sublinear speedup.

        On islands machines the banks are carved per island and a line
        queues at its *home* island's banks, so cross-island traffic
        contends with the home island's local traffic.
        """
        if self._topo is None:
            bank = line & self._bank_mask
        else:
            bank = (self._home_of(line) * self._banks_per_island
                    + (line & self._island_bank_mask))
        free = self._bank_free[bank]
        delay = free - now if free > now else 0.0
        self._bank_free[bank] = now + delay + self.params.l2_occupancy
        if delay:
            self.stats.l2_queue_delay += int(delay)
            self.stats.l2_queued_accesses += 1
        return delay

    # ------------------------------------------------------------------ #
    # Data path                                                           #
    # ------------------------------------------------------------------ #

    def data_access(
        self, core: int, addr: int, write: bool, now: float
    ) -> tuple[int, int]:
        """Perform one data reference for ``core`` at time ``now``.

        Returns:
            ``(latency_cycles, level)`` where latency includes any L2 bank
            queueing delay.  L1 hits return the (pipelined) L1 latency.
        """
        p = self.params
        line = addr >> 6
        if self._topo is not None:
            line |= self._line_tag[core]
        stats = self.stats
        counts = stats.data_level_counts
        stats.data_accesses += 1
        hit, victim = self._l1d[core].access(line, write)
        if hit:
            counts[L1] += 1
            return p.l1_latency, L1
        owners = self._l1_owners
        bit = 1 << core
        if victim is not None:
            vline = victim[0]
            vmask = owners.get(vline)
            if vmask is not None:
                vmask &= ~bit
                if vmask:
                    owners[vline] = vmask
                else:
                    del owners[vline]
        sibling_mask = owners.get(line, 0) & ~bit
        if sibling_mask:
            # A sibling L1 holds the line.  Dirty copies require a fast
            # on-chip L1-to-L1 intervention (the CMP benefit of Sec 5.2);
            # clean copies are simply served by the shared L2 below.
            dirty_sibling = False
            dirty_core = -1
            for other in range(p.n_cores):
                if sibling_mask >> other & 1:
                    if self._l1d[other].lookup(line) == 1:  # DIRTY
                        if not dirty_sibling:
                            dirty_core = other
                        dirty_sibling = True
                    if write:
                        self._l1d[other].invalidate(line)
            if write:
                owners[line] = bit
            else:
                owners[line] = sibling_mask | bit
            if dirty_sibling:
                self.l2.touch(line)
                counts[L1X] += 1
                if (self._topo is not None and
                        self._core_island[dirty_core]
                        != self._core_island[core]):
                    # Cross-island intervention: the dirty copy crosses
                    # the socket interconnect, paying the remote-L2
                    # multiplier over the on-chip transfer.
                    stats.remote_l1x += 1
                    stats.remote_extra_cycles += int(self._remote_l1x_extra)
                    return int(p.l1_transfer_latency
                               + self._remote_l1x_extra), L1X
                return p.l1_transfer_latency, L1X
        owners[line] = owners.get(line, 0) | bit
        # Stride prefetch check (ablation feature, off by default).
        predicted = False
        if p.stride_prefetch:
            stride = line - self._pf_last[core]
            if stride == self._pf_stride[core] and stride != 0:
                if self._pf_conf[core] >= 2:
                    predicted = True
                else:
                    self._pf_conf[core] += 1
            else:
                self._pf_stride[core] = stride
                self._pf_conf[core] = 0
            self._pf_last[core] = line
        qdelay = self._l2_port(line, now)
        l2_hit, _ = self.l2.access(line, write)
        if self._topo is not None:
            # Islands charging rule (DESIGN.md section 15): a request
            # whose home island differs from the requester's pays the
            # remote-L2 multiplier on the L2 round trip, and a memory
            # miss additionally pays the remote-memory multiplier.
            extra = 0.0
            if self._home_of(line) != self._core_island[core]:
                stats.remote_accesses += 1
                extra = self._remote_l2_extra
                if not (l2_hit or predicted):
                    extra += self._remote_mem_extra
                stats.remote_extra_cycles += int(extra)
            if l2_hit or predicted:
                if not l2_hit:
                    stats.prefetch_covered += 1
                counts[L2] += 1
                return int(self.l2_latency + qdelay + extra), L2
            counts[MEM] += 1
            return int(self.l2_latency + qdelay + p.mem_latency + extra), MEM
        if l2_hit:
            counts[L2] += 1
            return int(self.l2_latency + qdelay), L2
        if predicted:
            # The prefetcher fetched the line ahead of use: the demand access
            # finds it arriving on chip and pays only the L2 round trip.
            stats.prefetch_covered += 1
            counts[L2] += 1
            return int(self.l2_latency + qdelay), L2
        counts[MEM] += 1
        return int(self.l2_latency + qdelay + p.mem_latency), MEM

    def warm_block(
        self, core: int, addrs, kinds, writes, lo: int, hi: int
    ) -> None:
        """Functional warm-up over ``addrs[lo:hi]``: the data path's L1,
        owner-map and L2 state transitions, with no timing.

        ``addrs``/``kinds`` are a trace's columns and ``writes[k]`` is the
        ``FLAG_WRITE`` bit (0 or 1) of event kind ``k``, so the write test
        is one extra subscript and no decode.  The L1 LRU update is
        inlined (list move-to-end on the cache's own sets, the dirty bit
        in its state map) with *no* stat counting: the warm/measure
        boundary resets every counter this loop would have bumped, so
        skipping them is unobservable.  ``tests/test_hierarchy.py`` checks the state it
        leaves against a per-reference walk.
        """
        l1 = self._l1d[core]
        sets = l1._sets
        states = l1._states
        n_sets = l1.n_sets
        assoc = l1.assoc
        l2_access = self.l2.access
        owners = self._l1_owners
        owners_get = owners.get
        bit = 1 << core
        nbit = ~bit
        n_cores = self.params.n_cores
        l1d = self._l1d
        log = self._warm_log
        log_append = None if log is None else log.append
        # tag is 0 on single-socket hierarchies, where `| 0` leaves every
        # line value bit-identical to the pre-island loop.
        tag = self._line_tag[core]
        for i in range(lo, hi):
            write = writes[kinds[i]]
            line = addrs[i] >> 6 | tag
            lines = sets[line % n_sets]
            if line in lines:
                if lines[-1] != line:
                    lines.remove(line)
                    lines.append(line)
                if write:
                    states[line] = DIRTY
                continue
            if len(lines) >= assoc:
                vline = lines.pop(0)
                if vline in states:
                    del states[vline]
                vmask = owners_get(vline)
                if vmask is not None:
                    vmask &= nbit
                    if vmask:
                        owners[vline] = vmask
                    else:
                        del owners[vline]
            lines.append(line)
            if write:
                states[line] = DIRTY
            sibling_mask = owners_get(line, 0) & nbit
            if write and sibling_mask:
                for other in range(n_cores):
                    if sibling_mask >> other & 1:
                        l1d[other].invalidate(line)
                owners[line] = bit
            else:
                owners[line] = owners_get(line, 0) | bit
            l2_access(line, write)
            if log_append is not None:
                log_append(line << 1 | write)

    # ------------------------------------------------------------------ #
    # Warm-state capture/replay                                           #
    # ------------------------------------------------------------------ #
    #
    # During warm-up nothing feeds back from the L2 into the L1s (no
    # back-invalidation), so for a fixed warm schedule the L1 contents,
    # the owner map, and the *sequence* of L2 accesses are all independent
    # of the L2 configuration.  A sweep that varies only the L2 (the
    # paper's central experiment) can therefore warm the L1 side once,
    # snapshot it, and for every other configuration replay just the
    # logged L2 accesses — which is bit-identical to a full re-warm.

    def begin_warm_log(self) -> None:
        """Start recording L2 warm accesses for later capture."""
        self._warm_log = array("Q")

    def capture_warm_state(self):
        """Snapshot (L1 sets, owner map, L2 access log) after a warm-up.

        The log is one flat column of packed ``line << 1 | write``
        words, recorded as ``array('Q')`` and narrowed to ``array('I')``
        when every word fits in 32 bits: a branch-free decode on replay.
        """
        log = self._warm_log if self._warm_log is not None else array("Q")
        self._warm_log = None
        try:
            frozen = array("I", log)
        except OverflowError:
            frozen = log
        return (
            [cache.snapshot_sets() for cache in self._l1d],
            dict(self._l1_owners),
            frozen,
        )

    def restore_warm_state(self, state) -> None:
        """Install a captured warm state (replays the L2 access log).

        The replay loop inlines :meth:`.cache.SetAssocCache.access` with
        no stat counting or victim bookkeeping: the warm/measure boundary
        resets every counter it would have bumped (the same argument that
        lets :meth:`warm_block` skip L1 stats), and during warm-up nothing
        observes L2 eviction victims — so the identical access sequence
        leaves the identical final L2 state.
        """
        l1_sets, owners, l2_log = state
        for cache, sets in zip(self._l1d, l1_sets):
            cache.load_sets(sets)
        self._l1_owners = dict(owners)
        l2 = self.l2
        sets = l2._sets
        states = l2._states
        n_sets = l2.n_sets
        assoc = l2.assoc
        for packed in l2_log:
            line = packed >> 1
            lines = sets[line % n_sets]
            if line in lines:
                if lines[-1] != line:
                    lines.remove(line)
                    lines.append(line)
            else:
                if len(lines) >= assoc:
                    vline = lines.pop(0)
                    if vline in states:
                        del states[vline]
                lines.append(line)
            if packed & 1:
                states[line] = DIRTY

    # ------------------------------------------------------------------ #
    # Instruction path                                                    #
    # ------------------------------------------------------------------ #

    def instr_block(
        self, core: int, base: int, region_lines: int, n_lines: int,
        jumped: bool, now: float,
    ) -> tuple[int, int]:
        """Model the instruction fetches of one compute block.

        Args:
            core: Fetching core.
            base: Code region base address.
            region_lines: Region footprint in lines.
            n_lines: Lines fetched by this block.
            jumped: Whether the block starts in a new code region.
            now: Current time (for the L2 port of the jump-target fetch).

        Returns:
            ``(exposed_cycles, level)``: frontend stall cycles the core must
            absorb, and the deepest level touched.
        """
        p = self.params
        stats = self.stats
        stats.instr_blocks += 1
        pressure = self._code_pressure[core]
        evicted_frac = pressure.touch(base, region_lines)
        exposed = 0.0
        level = L1
        if jumped:
            # A control transfer into another module: the hot paths of
            # recently-run modules stay L1I-resident, so only the evicted
            # fraction of jumps fetch from the L2.  The fractional credit
            # makes that deterministic without per-line I-cache state.
            pressure.miss_credit += evicted_frac
            if pressure.miss_credit >= 1.0:
                pressure.miss_credit -= 1.0
                line = base >> 6
                qdelay = self._l2_port(line, now)
                l2_hit, _ = self.l2.access(line, False)
                if l2_hit:
                    exposed += self.l2_latency + qdelay
                    level = L2
                else:
                    exposed += self.l2_latency + qdelay + p.mem_latency
                    level = MEM
                if self._topo is not None:
                    # Code lines stay untagged (program text is shared
                    # by every instance), so their homes interleave; a
                    # remote-home jump-target fetch pays the same extras
                    # as a remote data access.
                    if self._home_of(line) != self._core_island[core]:
                        extra = self._remote_l2_extra
                        if level == MEM:
                            extra += self._remote_mem_extra
                        stats.remote_accesses += 1
                        stats.remote_extra_cycles += int(extra)
                        exposed += extra
            else:
                exposed += p.jump_bubble_cycles
            n_lines -= 1
        if n_lines > 0 and evicted_frac > 0.0:
            # Sequential fetch through a thrashing footprint: the stream
            # buffer prefetches ahead and hides most of the L2 latency.
            if p.stream_buffers:
                per_line = max(
                    0.0, (self.l2_latency - p.isb_hide_cycles) * p.isb_expose_frac
                )
            else:
                per_line = float(self.l2_latency)
            if per_line:
                exposed += n_lines * per_line * evicted_frac
                if level == L1:
                    level = L2
        stats.instr_level_counts[level] += 1
        return int(exposed), level

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        """Reset all hierarchy and per-cache counters (keep cache state)."""
        self.stats.reset()
        self.l2.stats.reset()
        for c in self._l1d:
            c.stats.reset()

    def observe(self, probe, elapsed: float) -> None:
        """Report L2 port pressure into a profiling probe (read-only).

        ``l2_port_occupancy`` is the fraction of aggregate bank-cycles the
        window's L2 accesses occupied — the Fig. 8 contention signal as a
        single gauge.  Called once per run, never from the access path.
        """
        p = self.params
        stats = self.stats
        probe.count("l2_queue_delay", stats.l2_queue_delay)
        probe.count("l2_queued_accesses", stats.l2_queued_accesses)
        probe.count("prefetch_covered", stats.prefetch_covered)
        if self._topo is not None:
            probe.count("remote_accesses", stats.remote_accesses)
            probe.count("remote_l1x", stats.remote_l1x)
            probe.count("remote_extra_cycles", stats.remote_extra_cycles)
        if elapsed > 0:
            busy = self.l2.stats.accesses * p.l2_occupancy
            probe.gauge("l2_port_occupancy",
                        busy / (p.l2_banks * elapsed))
