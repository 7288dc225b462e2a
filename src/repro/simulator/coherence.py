"""SMP hierarchy: private per-node L2 caches kept coherent with MESI.

This is the "traditional symmetric multiprocessor" baseline of Section 5.2 /
Figure 7: each processor (node) has its own L1s and a private L2; a directory
tracks sharers and dirty owners across the L2s.  Data accesses that hit a
line dirty in a *remote* L2 pay a long cache-to-cache coherence transfer —
exactly the accesses that become cheap shared-L2 hits (or L1-to-L1 transfers)
on the CMP.

The directory is idealized (full-map, zero-occupancy): the studied effect is
the *latency class* of sharing misses, not directory implementation detail.
"""

from __future__ import annotations

from .cache import SetAssocCache
from .hierarchy import (
    COH,
    L1,
    L2,
    MEM,
    HierarchyParams,
    HierarchyStats,
    _CodePressure,
)
from . import cacti

#: MESI states stored in the private L2 caches.
INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

MESI_NAMES = ("I", "S", "E", "M")


class PrivateL2Hierarchy:
    """Private-L2 SMP hierarchy with a full-map MESI directory.

    One node per core (the paper's 4-processor SMP).  Exposes the same
    access interface as :class:`repro.simulator.hierarchy.SharedL2Hierarchy`.

    The per-node L2 capacity is ``params.l2_mb`` (e.g. 4 MB each for the
    Fig. 7 configuration, against a 16 MB shared CMP L2).
    """

    def __init__(self, params: HierarchyParams):
        self.params = params
        if params.l2_latency is not None:
            self.l2_latency = params.l2_latency
        else:
            self.l2_latency = cacti.l2_hit_latency(params.l2_nominal_mb)
        n = params.n_cores
        self._l1d = [
            SetAssocCache(f"L1D-{i}", params.l1d_kb * 1024, params.l1_assoc)
            for i in range(n)
        ]
        l2_bytes = int(params.l2_mb * 1024 * 1024)
        self._l2 = [
            SetAssocCache(f"L2-{i}", l2_bytes, params.l2_assoc) for i in range(n)
        ]
        # Directory: line -> sharer bitmask; separately, line -> dirty owner.
        self._sharers: dict[int, int] = {}
        self._owner: dict[int, int] = {}
        l1i_lines = params.l1i_kb * 1024 // 64
        self._code_pressure = [_CodePressure(l1i_lines) for i in range(n)]
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------ #
    # Directory bookkeeping                                               #
    # ------------------------------------------------------------------ #

    def _drop_copy(self, line: int, node: int) -> None:
        """Remove ``node`` from the directory entry for ``line``."""
        mask = self._sharers.get(line)
        if mask is None:
            return
        mask &= ~(1 << node)
        if mask:
            self._sharers[line] = mask
        else:
            del self._sharers[line]
        if self._owner.get(line) == node:
            del self._owner[line]

    def _evict_victim(self, line: int, node: int,
                      victim: tuple[int, int] | None) -> None:
        """Handle an L2 eviction at ``node`` (silent drop + directory update)."""
        if victim is None:
            return
        vline = victim[0]
        self._drop_copy(vline, node)
        # The L1 may hold a stale copy of the evicted line; drop it to keep
        # the inclusive invariant.
        self._l1d[node].invalidate(vline)

    def _insert(self, line: int, node: int, state: int) -> None:
        """Insert ``line`` at ``node`` with MESI ``state``, updating the
        directory and handling the eviction."""
        victim = self._l2[node].insert(line, state)
        self._evict_victim(line, node, victim)
        self._sharers[line] = self._sharers.get(line, 0) | (1 << node)
        if state == MODIFIED:
            self._owner[line] = node
        elif self._owner.get(line) == node:
            del self._owner[line]

    def _invalidate_remotes(self, line: int, node: int) -> None:
        """Invalidate every copy of ``line`` other than ``node``'s."""
        mask = self._sharers.get(line, 0) & ~(1 << node)
        other = 0
        while mask:
            if mask & 1:
                self._l2[other].invalidate(line)
                self._l1d[other].invalidate(line)
                self._drop_copy(line, other)
            mask >>= 1
            other += 1

    # ------------------------------------------------------------------ #
    # Data path                                                           #
    # ------------------------------------------------------------------ #

    def data_access(
        self, core: int, addr: int, write: bool, now: float
    ) -> tuple[int, int]:
        """Perform one data reference at ``core`` (node).

        Returns ``(latency_cycles, level)``; ``COH`` marks references
        serviced by a remote-L2 transfer or an invalidation round.
        """
        p = self.params
        line = addr >> 6
        stats = self.stats
        stats.data_accesses += 1
        l1_hit, _ = self._l1d[core].access(line, write)
        l2 = self._l2[core]
        state = l2.lookup(line)
        if l1_hit and not write:
            stats.data_level_counts[L1] += 1
            return p.l1_latency, L1
        if l1_hit and write:
            # Write hit in L1: legal only if this node already owns the line.
            if state in (MODIFIED, EXCLUSIVE):
                if state == EXCLUSIVE:
                    l2.set_state(line, MODIFIED)
                    self._owner[line] = core
                stats.data_level_counts[L1] += 1
                return p.l1_latency, L1
            # Upgrade: invalidate remote copies before writing.
            self._invalidate_remotes(line, core)
            if state == SHARED:
                l2.set_state(line, MODIFIED)
                self._owner[line] = core
            else:
                self._insert(line, core, MODIFIED)
            stats.coherence_misses += 1
            stats.data_level_counts[COH] += 1
            return p.upgrade_latency, COH
        # L1 miss: consult the local L2 / directory.
        if state is not None and state != INVALID:
            if write and state == SHARED:
                self._invalidate_remotes(line, core)
                l2.set_state(line, MODIFIED)
                self._owner[line] = core
                stats.coherence_misses += 1
                stats.data_level_counts[COH] += 1
                return p.upgrade_latency, COH
            if write:
                l2.set_state(line, MODIFIED)
                self._owner[line] = core
            l2.touch(line)
            stats.data_level_counts[L2] += 1
            return self.l2_latency, L2
        # Local L2 miss: remote dirty copy, remote clean copy, or memory.
        owner = self._owner.get(line)
        if owner is not None and owner != core:
            # Dirty remote: long cache-to-cache transfer (the SMP penalty
            # that the CMP converts into an L2 hit, Section 5.2).
            stats.coherence_misses += 1
            if write:
                self._invalidate_remotes(line, core)
                self._insert(line, core, MODIFIED)
            else:
                self._l2[owner].set_state(line, SHARED)
                del self._owner[line]
                self._insert(line, core, SHARED)
            stats.data_level_counts[COH] += 1
            return p.coherence_latency, COH
        sharer_mask = self._sharers.get(line, 0) & ~(1 << core)
        if write:
            if sharer_mask:
                self._invalidate_remotes(line, core)
                stats.coherence_misses += 1
            self._insert(line, core, MODIFIED)
            stats.data_level_counts[MEM] += 1
            return self.l2_latency + p.mem_latency, MEM
        if sharer_mask:
            # Remote clean copies: downgrade any EXCLUSIVE holder so a later
            # write there cannot silently upgrade past our copy.
            other = 0
            mask = sharer_mask
            while mask:
                if mask & 1 and self._l2[other].lookup(line) == EXCLUSIVE:
                    self._l2[other].set_state(line, SHARED)
                mask >>= 1
                other += 1
        self._insert(line, core, SHARED if sharer_mask else EXCLUSIVE)
        stats.data_level_counts[MEM] += 1
        return self.l2_latency + p.mem_latency, MEM

    def warm_block(
        self, core: int, addrs, kinds, writes, lo: int, hi: int
    ) -> None:
        """Functional warm-up over a trace's columns: the
        :meth:`data_access` state transitions, timing discarded.

        ``writes[k]`` is the ``FLAG_WRITE`` bit of event kind ``k`` (see
        :meth:`.hierarchy.SharedL2Hierarchy.warm_block`).  MESI
        transitions are too entangled to inline profitably, so this only
        hoists the method lookup; counters accumulate and are cleared by
        :meth:`reset_stats` at the warm/measure boundary.
        """
        access = self.data_access
        for i in range(lo, hi):
            access(core, addrs[i], writes[kinds[i]], 0.0)

    # ------------------------------------------------------------------ #
    # Instruction path (node-local; code is read-shared, no coherence)    #
    # ------------------------------------------------------------------ #

    def instr_block(
        self, core: int, base: int, region_lines: int, n_lines: int,
        jumped: bool, now: float,
    ) -> tuple[int, int]:
        """Instruction-fetch model against the node-local L2.

        Same analytic model as the CMP hierarchy (see
        :meth:`SharedL2Hierarchy.instr_block`), but jump targets are fetched
        through the private L2 and code lines are read-shared (never COH).
        """
        p = self.params
        stats = self.stats
        stats.instr_blocks += 1
        pressure = self._code_pressure[core]
        evicted_frac = pressure.touch(base, region_lines)
        exposed = 0.0
        level = L1
        if jumped:
            pressure.miss_credit += evicted_frac
            if pressure.miss_credit >= 1.0:
                pressure.miss_credit -= 1.0
                line = base >> 6
                l2 = self._l2[core]
                state = l2.lookup(line)
                if state is not None and state != INVALID:
                    l2.touch(line)
                    exposed += self.l2_latency
                    level = L2
                else:
                    self._insert(line, core, SHARED)
                    exposed += self.l2_latency + p.mem_latency
                    level = MEM
            else:
                exposed += p.jump_bubble_cycles
            n_lines -= 1
        if n_lines > 0 and evicted_frac > 0.0:
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
        """Reset hierarchy and cache counters, keeping cache state."""
        self.stats.reset()
        for c in self._l1d:
            c.stats.reset()
        for c in self._l2:
            c.stats.reset()

    def observe(self, probe, elapsed: float) -> None:
        """Report coherence-path pressure into a profiling probe.

        The SMP has no shared banked L2, so instead of port occupancy it
        reports the directory traffic the CMP converts into on-chip
        transfers (Fig. 7's comparison).  Called once per run.
        """
        probe.count("coherence_misses", self.stats.coherence_misses)
        probe.count("l2_queue_delay", self.stats.l2_queue_delay)
        probe.count("l2_queued_accesses", self.stats.l2_queued_accesses)

    @property
    def l2_caches(self) -> list[SetAssocCache]:
        """The per-node private L2 instances (for tests)."""
        return list(self._l2)
