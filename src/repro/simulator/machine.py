"""Machines: cores + hierarchy + the warm/measure execution loop.

A :class:`Machine` binds a camp's cores to a hierarchy, maps a workload's
per-client traces onto hardware contexts, functionally warms the caches
(the SimFlex-style warm-then-measure discipline, Section 3 of the paper),
and then runs the event-driven timing simulation, producing a
:class:`MachineResult` with the execution-time breakdown and the paper's
performance metrics:

- *throughput mode*: aggregate committed user instructions per cycle over a
  fixed measurement window (the paper's saturated-workload metric);
- *response mode*: cycles to complete one full pass of a single client's
  trace (the paper's unsaturated-workload metric).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import MISSING, dataclass, field, fields

from .breakdown import Breakdown
from .coherence import PrivateL2Hierarchy
from .cores import CoreParams, FatCore, LeanCore
from .hierarchy import (
    COH,
    L1,
    L1X,
    L2,
    MEM,
    HierarchyParams,
    HierarchyStats,
    SharedL2Hierarchy,
)
from .profiling import NULL_PROBE
from . import replay
from .topology import (
    DEFAULT_PLACEMENT,
    IslandTopology,
    check_geometry,
    check_placement,
)
from .trace import Trace, Workload

#: Schema tag stamped into every :meth:`MachineResult.to_dict` document.
#: Bump when a field is added, removed, or changes meaning, so downstream
#: consumers (the analytical model, exported JSON) fail loudly on a
#: document written by a different layout instead of misreading it.
RESULT_SCHEMA = "machine-result-v1"

#: Default measurement window in cycles (the paper measures 50k-cycle
#: samples; our coarser-grain traces need a longer window for the same
#: number of references).
DEFAULT_MEASURE_CYCLES = 400_000

#: Memoized post-warm states for the shared-L2 hierarchy, keyed by the
#: warm schedule and L1 geometry (everything the warm state can depend on
#: besides the L2 itself).  Each value is a ``(state, traces)`` pair: the
#: traces pin the object ids in the key so they cannot be recycled while
#: the entry is alive.
_WARM_MEMO: dict = {}
_WARM_MEMO_CAP = 4

#: References each warm walker issues per round-robin turn of the warm walk.
_WARM_CHUNK = 64


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine description: camp cores over a hierarchy.

    Attributes:
        name: Label used in reports ("FC CMP 4x26MB", ...).
        core: Core microarchitecture (camp) parameters.
        hierarchy: Cache hierarchy parameters.
        smp: If True, build private per-node L2s with MESI coherence
            instead of the shared CMP L2.
        topology: Optional hardware-islands topology.  None (or an
            inactive 1-socket topology) keeps the pre-island single-chip
            machine; an active topology carves the cores and L2 banks
            into islands and charges remote latencies (DESIGN.md
            section 15).  Incompatible with ``smp`` (the SMP model has
            its own private-L2 coherence geometry).
    """

    name: str
    core: CoreParams
    hierarchy: HierarchyParams
    smp: bool = False
    topology: IslandTopology | None = None

    def __post_init__(self) -> None:
        topo = self.topology
        if topo is None:
            return
        if not isinstance(topo, IslandTopology):
            raise ValueError(
                f"topology must be an IslandTopology or None, got {topo!r}")
        if topo.active and self.smp:
            raise ValueError(
                "islands topologies apply to the shared-L2 CMP "
                "hierarchy, not smp machines")
        # Eager geometry checks: fail at construction, not mid-sweep.
        check_geometry(topo, self.hierarchy.n_cores, self.hierarchy.l2_banks)

    @property
    def islands(self) -> bool:
        """True when this machine has an active multi-socket topology."""
        return self.topology is not None and self.topology.active

    @property
    def n_hardware_contexts(self) -> int:
        """Total hardware contexts = cores x contexts per core."""
        return self.hierarchy.n_cores * self.core.n_contexts


@dataclass
class MachineResult:
    """Everything an experiment extracts from one simulation run.

    Attributes:
        config_name: The machine configuration label.
        workload_name: The workload label.
        breakdown: Aggregate breakdown over all active cores.
        per_core: Per-core breakdowns (inactive cores excluded).
        retired: User instructions committed in the window.
        elapsed: Measurement window length in cycles.
        ipc: Aggregate committed instructions per cycle — the paper's
            throughput metric.
        response_cycles: Single-pass completion time (response mode only).
        hier_stats: Hierarchy counters captured over the window.
        l2_miss_rate: Shared-L2 miss rate over the window (CMP); mean of
            private L2 miss rates (SMP).
    """

    config_name: str
    workload_name: str
    breakdown: Breakdown
    per_core: list[Breakdown]
    retired: int
    elapsed: float
    ipc: float
    response_cycles: float | None
    hier_stats: HierarchyStats
    l2_miss_rate: float
    extras: dict = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        """Aggregate cycles per instruction (per-core view: busy/retired)."""
        if not self.retired:
            return math.inf
        return sum(b.busy for b in self.per_core) / self.retired

    # ------------------------------------------------------------------ #
    # Derived views (what the analytical model consumes)                  #
    # ------------------------------------------------------------------ #

    def stall_cpi(self) -> dict[str, float]:
        """Per-component cycles per retired instruction (the CPI stack,
        one entry per :class:`~repro.simulator.breakdown.Breakdown` field).
        """
        instr = max(1, self.retired)
        return {k: v / instr for k, v in self.breakdown.as_dict().items()}

    def miss_ratios(self) -> dict[str, float]:
        """Per-reference service-level ratios and access rates.

        These are the measured inputs of :mod:`repro.model`: where data
        references were satisfied (as fractions of all references), how
        many references and off-L1 instruction fetches each retired
        instruction generates, and the mean L2 bank-queue wait per access
        that reached an L2 port.
        """
        hs = self.hier_stats
        refs = max(1, hs.data_accesses)
        counts = hs.data_level_counts
        instr = max(1, self.retired)
        port_accesses = counts[L2] + counts[MEM]
        return {
            "l1d_miss": 1.0 - counts[L1] / refs,
            "l1x_fraction": counts[L1X] / refs,
            "l2_fraction": counts[L2] / refs,
            "mem_fraction": counts[MEM] / refs,
            "coh_fraction": counts[COH] / refs,
            "l2_miss_rate": self.l2_miss_rate,
            "accesses_per_instr": hs.data_accesses / instr,
            "instr_port_per_instr": (hs.instr_level_counts[L2]
                                     + hs.instr_level_counts[MEM]) / instr,
            "l2_queue_wait": (hs.l2_queue_delay / port_accesses
                              if port_accesses else 0.0),
        }

    # ------------------------------------------------------------------ #
    # Stable serialization                                                #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """A stable, versioned, JSON-serializable document.

        The document carries every raw field plus the derived
        :meth:`stall_cpi` / :meth:`miss_ratios` blocks, so downstream
        consumers read named fields instead of reaching into ad-hoc
        attributes.  :meth:`from_dict` round-trips it exactly (derived
        blocks are recomputed, not trusted).
        """
        return {
            "schema": RESULT_SCHEMA,
            "config_name": self.config_name,
            "workload_name": self.workload_name,
            "breakdown": self.breakdown.as_dict(),
            "per_core": [b.as_dict() for b in self.per_core],
            "retired": self.retired,
            "elapsed": self.elapsed,
            "ipc": self.ipc,
            "response_cycles": self.response_cycles,
            "hier_stats": {
                f.name: (list(v) if isinstance(
                    v := getattr(self.hier_stats, f.name), list) else v)
                for f in fields(self.hier_stats)
            },
            "l2_miss_rate": self.l2_miss_rate,
            "extras": dict(self.extras),
            "stall_cpi": self.stall_cpi(),
            "miss_ratios": self.miss_ratios(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MachineResult":
        """Rebuild a result from a :meth:`to_dict` document.

        Accepts both pre-island ``machine-result-v1`` documents (whose
        ``hier_stats`` block lacks the island counters) and current
        documents: counters absent from the document restore at their
        dataclass defaults, exactly like :meth:`HierarchyStats.__setstate__`
        on an old pickle.  Core counters present in v1 stay required.

        Raises:
            ValueError: on a missing/unknown schema tag or a document
                missing a raw field (derived blocks are ignored).
        """
        if not isinstance(doc, dict):
            raise ValueError("machine-result document must be an object")
        schema = doc.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported machine-result schema {schema!r} "
                f"(expected {RESULT_SCHEMA!r})")
        try:
            hier_doc = doc["hier_stats"]
            stats = HierarchyStats(**{
                f.name: (list(hier_doc[f.name])
                         if isinstance(hier_doc[f.name], list)
                         else hier_doc[f.name])
                for f in fields(HierarchyStats)
                if f.name in hier_doc or f.default is MISSING
            })
            return cls(
                config_name=doc["config_name"],
                workload_name=doc["workload_name"],
                breakdown=Breakdown(**doc["breakdown"]),
                per_core=[Breakdown(**b) for b in doc["per_core"]],
                retired=doc["retired"],
                elapsed=doc["elapsed"],
                ipc=doc["ipc"],
                response_cycles=doc["response_cycles"],
                hier_stats=stats,
                l2_miss_rate=doc["l2_miss_rate"],
                extras=dict(doc.get("extras", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed machine-result document: {exc}") from exc


class Machine:
    """An instantiated machine ready to run workloads.

    A fresh Machine has cold caches; :meth:`run` warms them functionally
    before measuring.  Machines are single-use per run (state carries over
    if reused, which experiments exploit for paired measurements).
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        if config.smp:
            self.hierarchy = PrivateL2Hierarchy(config.hierarchy)
        else:
            self.hierarchy = SharedL2Hierarchy(config.hierarchy,
                                               config.topology)
        self._cores: list = []
        self._batched_steps = 0

    # ------------------------------------------------------------------ #
    # Context mapping                                                     #
    # ------------------------------------------------------------------ #

    def _assign(self, traces: list[Trace],
                placement: str = DEFAULT_PLACEMENT) -> list[list[list[Trace]]]:
        """Round-robin client traces onto [core][context] slots.

        More clients than contexts -> contexts cycle through several client
        traces (queued clients); fewer -> surplus contexts idle.

        Under the pinned placements (``island-partitioned`` / ``hybrid``)
        client ``i`` is pinned to island ``i % n_sockets`` and
        round-robins across that island's cores first, mirroring the
        global fill-across-cores-first rule within the island.  The
        default ``shared-everything`` placement is the pre-island global
        round-robin, bit-identical slot for slot.
        """
        cfg = self.config
        n_cores = cfg.hierarchy.n_cores
        per_core = cfg.core.n_contexts
        slots: list[list[list[Trace]]] = [
            [[] for _ in range(per_core)] for _ in range(n_cores)
        ]
        if cfg.islands and placement in ("island-partitioned", "hybrid"):
            topo = cfg.topology
            n_sockets = topo.n_sockets
            cores_per_island = topo.island_cores(n_cores)
            island_slots = cores_per_island * per_core
            filled = [0] * n_sockets
            for i, tr in enumerate(traces):
                island = i % n_sockets
                slot = filled[island] % island_slots
                filled[island] += 1
                core = island * cores_per_island + slot % cores_per_island
                ctx = slot // cores_per_island
                slots[core][ctx].append(tr)
            return slots
        total = n_cores * per_core
        for i, tr in enumerate(traces):
            slot = i % total
            # Fill across cores first so small client counts spread out,
            # matching how an OS scheduler places runnable threads.
            core, ctx = slot % n_cores, slot // n_cores
            slots[core][ctx].append(tr)
        return slots

    def _build_cores(self, slots: list[list[list[Trace]]],
                     offset_of) -> None:
        cfg = self.config
        self._cores = []
        for core_id, core_slots in enumerate(slots):
            if cfg.core.n_contexts == 1:
                traces = core_slots[0]
                self._cores.append(
                    FatCore(core_id, cfg.core, self.hierarchy, traces,
                            [offset_of(t) for t in traces])
                )
            else:
                self._cores.append(
                    LeanCore(
                        core_id, cfg.core, self.hierarchy, core_slots,
                        [[offset_of(t) for t in traces]
                         for traces in core_slots],
                    )
                )

    # ------------------------------------------------------------------ #
    # Warm phase                                                          #
    # ------------------------------------------------------------------ #

    def _warm(self, slots: list[list[list[Trace]]], passes: int,
              warm_len_of) -> None:
        """Functionally warm caches over each trace's warm prefix.

        The walk (:func:`.replay.compute_warm_state`) advances contexts
        in round-robin chunks so the shared L2 sees a realistic mix of
        all clients rather than one client at a time.  Measurement then
        starts where warming stopped, so references to the cold
        secondary working set are genuinely unseen.

        For the shared-L2 hierarchy the resulting L1/owner state and the
        L2 access sequence do not depend on the L2 configuration, so the
        post-warm state is memoized per (warm schedule, L1 geometry) and
        replayed for sweeps that vary only the L2 — bit-identical to a
        full re-warm at a fraction of the cost.  The memo key covers all
        the post-warm state depends on besides the L2 itself.
        ``warm_identity()`` is ``()`` on single-socket machines, so their
        keys stay byte-identical to pre-island builds; islands machines
        key on topology + line tags (placement-dependent).
        """
        # Walkers are (core_id, trace, warm_len) in slot order, the order
        # the walk visits them.
        walkers = [(core_id, tr, warm_len_of(tr))
                   for core_id, core_slots in enumerate(slots)
                   for ctx_traces in core_slots
                   for tr in ctx_traces]
        hier = self.hierarchy
        if isinstance(hier, SharedL2Hierarchy):
            p = hier.params
            memo_key = (p.n_cores, p.l1d_kb, p.l1_assoc, passes, _WARM_CHUNK,
                        tuple((core_id, id(tr), warm_len)
                              for core_id, tr, warm_len in walkers)
                        ) + hier.warm_identity()
            entry = _WARM_MEMO.get(memo_key)
            if entry is not None:
                hier.restore_warm_state(entry[0])
            else:
                self._memoize(memo_key, replay.compute_warm_state(
                    hier, walkers, passes, _WARM_CHUNK), walkers)
        else:
            replay.compute_warm_state(hier, walkers, passes, _WARM_CHUNK)
        hier.reset_stats()

    @staticmethod
    def _memoize(memo_key, state, walkers) -> None:
        if len(_WARM_MEMO) >= _WARM_MEMO_CAP:
            _WARM_MEMO.pop(next(iter(_WARM_MEMO)))
        # The entry holds the walkers' traces so the ids in the key stay
        # pinned to these exact objects for the entry's lifetime.
        _WARM_MEMO[memo_key] = (state, tuple(tr for _, tr, _ in walkers))

    # ------------------------------------------------------------------ #
    # Measurement                                                         #
    # ------------------------------------------------------------------ #

    def run(
        self,
        workload: Workload,
        mode: str = "throughput",
        measure_cycles: float = DEFAULT_MEASURE_CYCLES,
        warm_passes: int = 1,
        warm_fraction: float = 0.5,
        probe=NULL_PROBE,
        placement: str = DEFAULT_PLACEMENT,
    ) -> MachineResult:
        """Warm, then measure the workload on this machine.

        Args:
            workload: Per-client traces to execute.
            mode: ``"throughput"`` (fixed window, aggregate IPC) or
                ``"response"`` (single pass of client 0, completion time).
            measure_cycles: Window length for throughput mode.
            warm_passes: Functional warm passes (0 = cold caches).
            warm_fraction: Fraction of each trace warmed functionally in
                throughput mode; measurement starts at that offset so the
                cold secondary working set stays cold.  Response mode
                warms the whole trace and measures one full pass.
            probe: A :mod:`repro.simulator.profiling` probe recording
                phase wall-times and simulator event counts.  The default
                :data:`~repro.simulator.profiling.NULL_PROBE` is inert;
                probes only observe and never feed back into timing, so
                the result is identical either way.
            placement: Deployment placement on islands machines
                (:data:`repro.simulator.topology.PLACEMENTS`).  Only the
                default ``shared-everything`` is legal on single-socket
                machines.

        Returns:
            A :class:`MachineResult`.

        Raises:
            ValueError: for an unknown mode, a response-mode workload
                with more clients than hardware contexts, a
                ``warm_fraction`` outside [0, 1], a ``warm_passes`` that
                is not an int >= 0, or a throughput-mode
                ``measure_cycles`` that is not finite and positive.
        """
        if mode not in ("throughput", "response"):
            raise ValueError(f"unknown mode {mode!r}")
        check_placement(placement, self.config.topology)
        if self.config.islands:
            self.hierarchy.set_placement(placement)
        total_contexts = self.config.n_hardware_contexts
        if mode == "response" and workload.n_clients > total_contexts:
            raise ValueError(
                "response mode requires every client to have its own "
                f"hardware context ({workload.n_clients} clients > "
                f"{total_contexts} contexts)"
            )
        if not 0.0 <= warm_fraction <= 1.0:
            raise ValueError("warm_fraction must be within [0, 1]")
        if (isinstance(warm_passes, bool) or not isinstance(warm_passes, int)
                or warm_passes < 0):
            raise ValueError(
                f"warm_passes must be an int >= 0, got {warm_passes!r}")
        if mode == "throughput" and not (
                math.isfinite(measure_cycles) and measure_cycles > 0):
            raise ValueError(
                "measure_cycles must be finite and positive, got "
                f"{measure_cycles!r}")
        # Zero-length traces carry no events: they cannot advance a
        # context, so they are dropped before slot assignment (and a
        # bundle of only empty traces measures an empty window).
        live_traces = [tr for tr in workload.traces if len(tr)]
        if not live_traces:
            elapsed = 0.0 if mode == "response" else float(measure_cycles)
            return MachineResult(
                config_name=self.config.name,
                workload_name=workload.name,
                breakdown=Breakdown.total_of([]),
                per_core=[],
                retired=0,
                elapsed=elapsed,
                ipc=0.0,
                response_cycles=0.0 if mode == "response" else None,
                hier_stats=self.hierarchy.stats,
                l2_miss_rate=self._l2_miss_rate(),
                extras={"context_progress": []},
            )
        slots = self._assign(live_traces, placement)
        if not warm_passes:
            def offset_of(tr: Trace) -> int:
                return 0

            warm_len_of = offset_of
        else:
            # Warm the prefix; measure from there.  In response mode the
            # measured "request batch" is the unwarmed tail of the trace —
            # hot structures are warm, the cold secondary set is not.
            def offset_of(tr: Trace) -> int:
                return int(len(tr) * warm_fraction) % len(tr)

            warm_len_of = offset_of
        self._build_cores(slots, offset_of)
        if warm_passes:
            probe.phase_start("warm")
            self._warm(slots, warm_passes, warm_len_of)
            probe.phase_end("warm")
            if probe.enabled:
                probe.count(
                    "warm_refs",
                    warm_passes * sum(warm_len_of(tr)
                                      for tr in live_traces))
        probe.phase_start("measure")
        if mode == "response":
            response = self._run_response()
            elapsed = response
        else:
            response = None
            elapsed = float(measure_cycles)
            self._run_throughput(elapsed)
        probe.phase_end("measure")
        active = [c for c in self._cores if c.retired > 0 or
                  any(ctx.trace is not None for ctx in c.contexts)]
        per_core = [c.breakdown for c in active]
        breakdown = Breakdown.total_of(per_core)
        retired = sum(c.retired for c in self._cores)
        ipc = retired / elapsed if elapsed else 0.0
        # Fractional trace passes per context (work-completion accounting
        # for workloads whose contexts progress at different rates).
        progress = [
            ctx.passes + (ctx.pos / ctx.n if ctx.n else 0.0)
            for core in active for ctx in core.contexts
            if ctx.trace is not None
        ]
        if probe.enabled:
            probe.count("data_accesses", self.hierarchy.stats.data_accesses)
            probe.count("instr_blocks", self.hierarchy.stats.instr_blocks)
            probe.gauge("retired", retired)
            probe.gauge("elapsed_cycles", elapsed)
            probe.gauge("active_cores", len(active))
            self.hierarchy.observe(probe, elapsed)
            if self._batched_steps:
                probe.count("batched_steps", self._batched_steps)
        return MachineResult(
            config_name=self.config.name,
            workload_name=workload.name,
            breakdown=breakdown,
            per_core=per_core,
            retired=retired,
            elapsed=elapsed,
            ipc=ipc,
            response_cycles=response,
            hier_stats=self.hierarchy.stats,
            l2_miss_rate=self._l2_miss_rate(),
            extras={"context_progress": progress},
        )

    def _l2_miss_rate(self) -> float:
        hier = self.hierarchy
        if isinstance(hier, SharedL2Hierarchy):
            return hier.l2.stats.miss_rate
        rates = [c.stats.miss_rate for c in hier.l2_caches if c.stats.accesses]
        return sum(rates) / len(rates) if rates else 0.0

    def _run_throughput(self, horizon: float) -> None:
        heap: list[tuple[float, int, int]] = []
        seq = 0
        self._batched_steps = 0
        batched = 0
        for idx, core in enumerate(self._cores):
            t = core.next_time()
            if t < math.inf:
                heapq.heappush(heap, (t, seq, idx))
                seq += 1
        while heap:
            t, _, idx = heapq.heappop(heap)
            if t > horizon:
                break
            core = self._cores[idx]
            nt = core.step()
            # Keep stepping this core while its next event precedes the
            # rest of the heap, skipping the pop/push round trip.
            # Strictly precedes: on a timestamp tie the earlier-queued heap
            # entry (smaller seq) must run first, exactly as a pop/push
            # per event would order it.
            if heap:
                top = heap[0][0]
                while nt < top and nt <= horizon:
                    nt = core.step()
                    batched += 1
            else:
                while nt <= horizon:
                    nt = core.step()
                    batched += 1
            if nt < math.inf:
                heapq.heappush(heap, (nt, seq, idx))
                seq += 1
        # Attribute any trailing interval up to the horizon.  Each camp
        # implements `settle` with its own accounting semantics (lean
        # cores advance interval state; fat cores are block-atomic and
        # settle is a documented no-op), so the dispatch loop treats the
        # camps uniformly.
        for core in self._cores:
            core.settle(horizon)
        self._batched_steps = batched

    def _run_response(self) -> float:
        """Run every assigned context through one trace pass; the response
        time is the last completion (a single client for the paper's
        unsaturated runs; several for intra-query parallel plans)."""
        active = []
        for core in self._cores:
            contexts = [c for c in core.contexts if c.trace is not None]
            if contexts:
                core.pass_target = 1
                active.append((core, contexts))
        if not active:
            raise ValueError("no context has a trace assigned")
        heap: list[tuple[float, int, int]] = []
        seq = 0
        cores = [core for core, _ in active]
        for idx, core in enumerate(cores):
            heapq.heappush(heap, (core.next_time(), seq, idx))
            seq += 1
        # A step can only finish contexts on the stepped core, so track
        # unfinished contexts per core instead of rescanning every context
        # after every step (quadratic in active contexts otherwise).
        unfinished: list[list] = [list(ctxs) for _, ctxs in active]
        pending = sum(len(ctxs) for ctxs in unfinished)
        guard = 0
        while heap and pending:
            _, _, idx = heapq.heappop(heap)
            core = cores[idx]
            nt = core.step()
            mine = unfinished[idx]
            if mine:
                still = [ctx for ctx in mine if ctx.finished_at is math.inf]
                if len(still) != len(mine):
                    pending -= len(mine) - len(still)
                    unfinished[idx] = still
            if nt is not math.inf:
                heapq.heappush(heap, (nt, seq, idx))
                seq += 1
            guard += 1
            if guard > 50_000_000:
                raise RuntimeError("response-mode run did not terminate")
        if pending:
            raise RuntimeError("response-mode run stalled before completion")
        return max(ctx.finished_at for _, ctxs in active for ctx in ctxs)
