"""Camp core timing models: fat (wide OoO) and lean (multithreaded in-order).

Both camps replay the same per-context traces against the same hierarchy
(the paper's controlled comparison, Section 2.1) but differ in how much of
each access latency they *expose* as stall time:

- :class:`FatCore` — one hardware context, wide out-of-order issue.  It
  overlaps miss latency with independent downstream work: an independent
  miss is hidden up to the out-of-order window and overlapped with other
  independent misses (MLP); a DEPENDENT (pointer-chasing) miss exposes
  nearly its whole latency.  This is the "tight data dependencies limit
  ILP" mechanism the paper blames for fat-camp data stalls.
- :class:`LeanCore` — several hardware contexts, narrow in-order issue,
  fine-grained round-robin.  A context exposes every miss fully *to
  itself*, but the core keeps issuing from the other runnable contexts;
  core-level stall time appears only when every context is stalled at once.
  Modelled as processor sharing among runnable contexts.

Cores are event-driven entities with a local clock; the machine interleaves
them through a global priority queue so shared-L2 bank contention sees a
consistent time order.  ``step()`` processes one event and returns the
time of the core's next one, which is also what ``next_time()`` reports
until the core's state next changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .breakdown import Breakdown
from .hierarchy import COH, L1, L1X, L2, MEM
from .trace import (
    FLAG_CODE_JUMP, FLAG_DEPENDENT, FLAG_STREAM, FLAG_WRITE, Trace)

_EPS = 1e-9

#: Events a context executes from one client trace before the scheduler
#: rotates to the next queued client (the OS time-slice, in trace events).
#: Fine-grained multiplexing keeps every queued client's working set live
#: in the shared L2 regardless of core count, as a real scheduler would.
CLIENT_QUANTUM_EVENTS = 2048


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural parameters of one core (Table 1 axes).

    Attributes:
        camp: ``"fc"`` or ``"lc"``.
        issue_width: Peak instructions issued per cycle.
        n_contexts: Hardware thread contexts per core.
        pipeline_depth: Stages (drives the branch misprediction penalty).
        branch_penalty: Cycles lost per mispredicted branch.
        oo_window_cycles: Latency an OoO core hides for an independent miss
            (ROB-limited); 0 for in-order cores.
        dep_hide_cycles: Small overlap even a dependent miss enjoys from
            already-issued work.
        mlp: Memory-level parallelism — how many independent misses the
            core overlaps with each other; divides exposed miss time.
        ifetch_hide_cycles: Frontend stall cycles absorbed by the OoO
            backend's backlog; 0 for in-order cores.
        inorder_issue: Whether the core issues in order, and therefore
            achieves the trace's ``ilp_inorder`` rather than its ``ilp``.
        store_buffer_depth: Outstanding stores the core retires past; a
            store miss exposes only ``latency / depth`` (sustained store
            bursts drain at that rate instead of serializing).
        hit_under_miss_cycles: Latency a lockup-free in-order core hides
            for an *independent* access (compiler-scheduled load-use
            distance); dependent accesses expose everything.
    """

    camp: str
    issue_width: int
    n_contexts: int
    pipeline_depth: int
    branch_penalty: int
    oo_window_cycles: float = 0.0
    dep_hide_cycles: float = 0.0
    mlp: float = 1.0
    ifetch_hide_cycles: float = 0.0
    inorder_issue: bool = False
    hit_under_miss_cycles: float = 0.0
    store_buffer_depth: int = 1

    def effective_rate(self, trace) -> float:
        """Issue rate (instructions/cycle) the core achieves on ``trace``."""
        ilp = trace.ilp_inorder if self.inorder_issue else trace.ilp
        return min(float(self.issue_width), max(1.0, ilp))


def fat_core_params() -> CoreParams:
    """Table 1 fat-camp core: 4-wide, out-of-order, deep pipeline, 1 context."""
    return CoreParams(
        camp="fc",
        issue_width=4,
        n_contexts=1,
        pipeline_depth=14,
        branch_penalty=12,
        oo_window_cycles=30.0,
        dep_hide_cycles=2.0,
        mlp=3.5,
        ifetch_hide_cycles=8.0,
        inorder_issue=False,
        hit_under_miss_cycles=0.0,
        store_buffer_depth=8,
    )


def lean_core_params() -> CoreParams:
    """Table 1 lean-camp core: 2-wide, in-order, shallow pipeline, 4 contexts."""
    return CoreParams(
        camp="lc",
        issue_width=2,
        n_contexts=4,
        pipeline_depth=6,
        branch_penalty=4,
        oo_window_cycles=0.0,
        dep_hide_cycles=0.0,
        mlp=1.0,
        ifetch_hide_cycles=0.0,
        inorder_issue=True,
        hit_under_miss_cycles=16.0,
        store_buffer_depth=4,
    )


def _account_data(bd: Breakdown, level: int, cycles: float) -> None:
    """Add exposed data-stall cycles to the matching breakdown field."""
    if cycles <= 0:
        return
    if level == L2:
        bd.d_l2 += cycles
    elif level == MEM:
        bd.d_mem += cycles
    elif level == COH:
        bd.d_coh += cycles
    elif level == L1X:
        bd.d_l1x += cycles


def _account_instr(bd: Breakdown, level: int, cycles: float) -> None:
    """Add exposed instruction-stall cycles to the matching field."""
    if cycles <= 0:
        return
    if level == MEM:
        bd.i_mem += cycles
    else:
        bd.i_l2 += cycles


class _BlockWork(dict):
    """``icount -> (compute, branch, n_lines)`` for one context's trace.

    ``compute`` and ``branch`` are the block's cycles at the context's
    issue rate and the trace's misprediction cost; ``n_lines`` is its
    instruction-line count.  A trace carries a few dozen distinct icounts
    at most, so each entry is computed once, on first lookup.
    """

    __slots__ = ("rate", "branch_mpki", "branch_penalty")

    def __init__(self, rate: float, branch_mpki: float, branch_penalty: int):
        super().__init__()
        self.rate = rate
        self.branch_mpki = branch_mpki
        self.branch_penalty = branch_penalty

    def __missing__(self, icount: int) -> tuple[float, float, int]:
        work = self[icount] = (
            icount / self.rate,
            icount * self.branch_mpki / 1000.0 * self.branch_penalty,
            icount >> 4 or 1,
        )
        return work


class _Context:
    """One hardware context: a cursor over (possibly several) client traces.

    When a saturated workload has more clients than hardware contexts, the
    surplus clients queue: each context round-robins over its assigned
    client traces, completing a full pass of one before starting the next.
    Per-block work comes from one :class:`_BlockWork` table per queued
    trace; ``work`` is the current trace's and switches at each rotation.
    """

    __slots__ = (
        "traces", "offsets", "positions", "trace_idx", "trace", "n", "pos",
        "quantum", "quantum_left", "last_region",
        "retired", "passes", "state", "work_left", "comp_frac",
        "pending_addr", "pending_flags", "pending_icount", "has_pending",
        "wake_time", "wake_level", "wake_is_instr", "rate", "finished_at",
        "work_tables", "work",
    )

    RUNNABLE = 0
    STALLED = 1
    IDLE = 2

    def __init__(self, traces: list[Trace], params: CoreParams,
                 offsets: list[int] | None = None,
                 quantum: int = CLIENT_QUANTUM_EVENTS):
        self.traces = traces
        # Measurement starts each trace at its offset (the end of the
        # functionally-warmed prefix), so measured references to the cold
        # secondary set are genuinely unseen (DESIGN.md §1).
        if offsets is None:
            offsets = [0] * len(traces)
        self.offsets = offsets
        # Per-trace resume positions (last executed event index).
        self.positions = [off - 1 for off in offsets]
        self.quantum = quantum
        self.quantum_left = quantum
        self.trace_idx = 0
        self.trace = traces[0] if traces else None
        self.n = len(self.trace) if self.trace else 0
        self.pos = (offsets[0] - 1) if traces else -1
        self.last_region = -1
        self.retired = 0
        self.passes = 0
        self.state = _Context.IDLE if self.trace is None else _Context.RUNNABLE
        self.work_left = 0.0
        self.comp_frac = 1.0
        self.pending_addr = 0
        self.pending_flags = 0
        self.pending_icount = 0
        self.has_pending = False
        self.wake_time = math.inf
        self.wake_level = L1
        self.wake_is_instr = False
        self.finished_at = math.inf
        if self.trace is not None:
            self.rate = params.effective_rate(self.trace)
        else:
            self.rate = float(params.issue_width)
        # An idle context (no traces) never reads a work table.
        self.work_tables = [
            _BlockWork(self.rate, t.branch_mpki, params.branch_penalty)
            for t in traces
        ]
        self.work = self.work_tables[0] if traces else None

    def advance(self) -> tuple[int, int, int, int]:
        """Move to the next trace event; returns (icount, addr, flags, region).

        At each scheduling quantum the context rotates to its next queued
        client trace (resuming where that client left off); wrapping past
        the end of a trace counts one completed pass and restarts it at
        its warm offset.
        """
        if self.quantum_left <= 0 and len(self.traces) > 1:
            self.positions[self.trace_idx] = self.pos
            self.trace_idx = (self.trace_idx + 1) % len(self.traces)
            self.trace = self.traces[self.trace_idx]
            self.n = len(self.trace)
            self.pos = self.positions[self.trace_idx]
            self.quantum_left = self.quantum
            self.last_region = -1
            self.work = self.work_tables[self.trace_idx]
        self.pos += 1
        if self.pos >= self.n:
            self.passes += 1
            self.pos = self.offsets[self.trace_idx]
            if self.pos >= self.n:
                self.pos = 0
            self.last_region = -1
        self.quantum_left -= 1
        t = self.trace
        i = self.pos
        # One event-table unpack decodes the whole event (DESIGN.md §11).
        icount, flags, region = t.events[t.kinds[i]]
        return icount, t.addrs[i], flags, region


class FatCore:
    """A fat-camp core: sequential walker with analytic stall overlap.

    One event per trace block: the core computes through the block (at
    ``min(width, ILP)`` instructions per cycle), fetches instructions
    (frontend stalls partially absorbed by the backend), performs the data
    reference, and exposes the unhidable part of the latency.
    """

    def __init__(self, core_id: int, params: CoreParams, hierarchy,
                 traces: list[Trace], offsets: list[int] | None = None):
        self.core_id = core_id
        self.params = params
        self.hier = hierarchy
        self.ctx = _Context(traces, params, offsets)
        self.t = 0.0
        self.breakdown = Breakdown()
        self.pass_target: int | None = None

    @property
    def contexts(self) -> list[_Context]:
        """The single hardware context, as a list for uniformity."""
        return [self.ctx]

    @property
    def retired(self) -> int:
        """Instructions retired so far."""
        return self.ctx.retired

    def next_time(self) -> float:
        """Time of the next event, or +inf if this core has no work."""
        return self.t if self.ctx.state != _Context.IDLE else math.inf

    def step(self) -> float:
        """Process one trace block (compute + fetch + data reference).

        Returns the time of the next block, or +inf once the core is idle.
        """
        ctx = self.ctx
        if ctx.state == _Context.IDLE:
            return math.inf
        p = self.params
        bd = self.breakdown
        hier = self.hier
        core_id = self.core_id
        # Inlined _Context.advance fast path: the overwhelmingly common
        # case is "next event of the same trace, same quantum" — no
        # rotation, no wrap, one event-table decode.
        pos = ctx.pos + 1
        if pos < ctx.n and (ctx.quantum_left > 0 or len(ctx.traces) == 1):
            ctx.pos = pos
            ctx.quantum_left -= 1
            trace = ctx.trace
            icount, flags, region = trace.events[trace.kinds[pos]]
            addr = trace.addrs[pos]
        else:
            icount, addr, flags, region = ctx.advance()
            trace = ctx.trace
        fp = trace.footprints[region]
        # A fresh cursor (last_region -1) always jumps; otherwise the
        # previous block was pos-1 of this trace.
        jumped = region != ctx.last_region or flags & FLAG_CODE_JUMP
        compute, branch, n_lines = ctx.work[icount]
        ctx.last_region = region
        i_exposed, i_level = hier.instr_block(
            core_id, fp.base, fp.n_lines, n_lines, jumped, self.t
        )
        i_stall = max(0.0, i_exposed - p.ifetch_hide_cycles)
        access_t = self.t + i_stall + compute
        lat, d_level = hier.data_access(
            core_id, addr, bool(flags & FLAG_WRITE), access_t
        )
        if d_level == L1:
            d_exposed = 0.0
        elif flags & FLAG_WRITE:
            # Stores retire through the store buffer; a burst drains at
            # latency/depth per store rather than serializing.
            d_exposed = lat / p.store_buffer_depth
        elif flags & FLAG_DEPENDENT:
            if flags & FLAG_STREAM and lat >= 100:
                # A dependent decode inside a sequential scan: the miss
                # itself streams from memory ahead of use; only part of
                # the long latency reaches the pipeline.
                d_exposed = max(0.0, lat / p.mlp - compute)
            else:
                # Pointer chase: nothing downstream to overlap with.
                d_exposed = max(0.0, lat - p.dep_hide_cycles)
        else:
            # Independent miss: the OoO core overlaps it with the compute
            # preceding it (bounded by the ROB window) and with up to
            # ``mlp`` sibling misses in flight.
            overlap = min(compute, p.oo_window_cycles)
            d_exposed = max(0.0, lat / p.mlp - overlap)
        bd.computation += compute
        bd.other += branch
        _account_instr(bd, i_level, i_stall)
        _account_data(bd, d_level, d_exposed)
        ctx.retired += icount
        self.t = access_t + branch + d_exposed
        if self.pass_target is not None and ctx.pos == ctx.n - 1:
            # The block just executed was the trace's last: the pass
            # completes now.
            if ctx.passes + 1 >= self.pass_target:
                ctx.finished_at = self.t
                ctx.state = _Context.IDLE
                return math.inf
        return self.t

    def settle(self, horizon: float) -> None:
        """End-of-window hook: nothing to flush on a fat core.

        Fat cores account whole blocks atomically at completion time —
        there is no partially-attributed interval to close at the window
        edge, so the camp-uniform settle is a documented no-op (the lean
        camp's interval accounting is the one that needs flushing).
        """


class LeanCore:
    """A lean-camp core: processor sharing among runnable hardware contexts.

    Runnable contexts split the core's issue bandwidth equally (fine-grained
    round-robin); a context that misses beyond the L1 stalls until serviced
    while the core keeps running the others.  Core-level stall time is
    accounted only when *all* contexts are stalled, attributed to the
    category of the context that wakes first (DESIGN.md decision 6).

    Every state transition (construction, :meth:`step`, :meth:`settle`)
    leaves behind the next event time, the number of runnable contexts
    and the first-waking stalled context, so :meth:`next_time` is a read
    and the next interval's accounting needs no extra scan.
    """

    def __init__(self, core_id: int, params: CoreParams, hierarchy,
                 context_traces: list[list[Trace]],
                 context_offsets: list[list[int]] | None = None):
        if len(context_traces) > params.n_contexts:
            raise ValueError(
                f"{len(context_traces)} contexts exceed the core's "
                f"{params.n_contexts} hardware contexts"
            )
        self.core_id = core_id
        self.params = params
        self.hier = hierarchy
        if context_offsets is None:
            context_offsets = [None] * len(context_traces)
        self.contexts = [
            _Context(traces, params, offs)
            for traces, offs in zip(context_traces, context_offsets)
        ]
        self.t = 0.0
        self.breakdown = Breakdown()
        self.pass_target: int | None = None
        for ctx in self.contexts:
            if ctx.state == _Context.RUNNABLE:
                self._load_next_block(ctx)
        self._schedule()

    @property
    def retired(self) -> int:
        """Instructions retired across all contexts."""
        return sum(c.retired for c in self.contexts)

    # ------------------------------------------------------------------ #
    # Event machinery                                                     #
    # ------------------------------------------------------------------ #

    def next_time(self) -> float:
        """Earliest of: next wake-up, next processor-sharing completion."""
        return self._next

    def _schedule(self) -> None:
        """Recompute the next event time, runnable count and waker.

        The from-scratch form of :meth:`step`'s second pass, for the
        transitions that complete no block (construction, settle).  The
        waker is the *first* stalled context with the minimum wake time.
        """
        nxt = math.inf
        n_run = 0
        min_work = math.inf
        waker = None
        for c in self.contexts:
            if c.state == _Context.STALLED:
                if c.wake_time < nxt:
                    nxt = c.wake_time
                    waker = c
            elif c.state == _Context.RUNNABLE:
                n_run += 1
                if c.work_left < min_work:
                    min_work = c.work_left
        if n_run:
            completion = self.t + min_work * n_run
            if completion < nxt:
                nxt = completion
        self._next = nxt
        self._n_run = n_run
        self._waker = waker

    def _elapse(self, t: float) -> float:
        """Move the clock to ``t``; return each runnable context's share.

        The runnable contexts split the interval equally and the caller
        charges each its share.  With none runnable the whole interval is
        core-level stall time, attributed to the category of the context
        that wakes first, or idle time when no context is stalled.
        """
        dt = t - self.t
        self.t = t
        if dt <= 0:
            return 0.0
        if self._n_run:
            return dt / self._n_run
        waker = self._waker
        bd = self.breakdown
        if waker is None:
            bd.idle += dt
        elif waker.wake_is_instr:
            _account_instr(bd, waker.wake_level, dt)
        else:
            _account_data(bd, waker.wake_level, dt)
        return 0.0

    def _load_next_block(self, ctx: _Context) -> None:
        """Fetch the context's next trace event and set up its work.

        An exposed instruction fetch stalls the context first; otherwise it
        becomes runnable with the block's compute work.
        """
        # Inlined _Context.advance fast path (see FatCore.step).
        pos = ctx.pos + 1
        if pos < ctx.n and (ctx.quantum_left > 0 or len(ctx.traces) == 1):
            ctx.pos = pos
            ctx.quantum_left -= 1
            trace = ctx.trace
            icount, flags, region = trace.events[trace.kinds[pos]]
            addr = trace.addrs[pos]
        else:
            icount, addr, flags, region = ctx.advance()
            trace = ctx.trace
        fp = trace.footprints[region]
        jumped = region != ctx.last_region or flags & FLAG_CODE_JUMP
        compute, branch, n_lines = ctx.work[icount]
        ctx.last_region = region
        i_exposed, i_level = self.hier.instr_block(
            self.core_id, fp.base, fp.n_lines, n_lines, jumped, self.t
        )
        work = compute + branch
        ctx.work_left = work
        ctx.comp_frac = compute / work if work > 0 else 1.0
        ctx.pending_addr = addr
        ctx.pending_flags = flags
        ctx.pending_icount = icount
        ctx.has_pending = True
        if i_exposed > 0:
            ctx.state = _Context.STALLED
            ctx.wake_time = self.t + i_exposed
            ctx.wake_level = i_level
            ctx.wake_is_instr = True
        else:
            ctx.state = _Context.RUNNABLE

    def _complete_block(self, ctx: _Context, t: float) -> None:
        """Retire the context's current block and perform its data reference."""
        ctx.has_pending = False
        ctx.retired += ctx.pending_icount
        lat, level = self.hier.data_access(
            self.core_id,
            ctx.pending_addr,
            bool(ctx.pending_flags & FLAG_WRITE),
            t,
        )
        if level != L1 and ctx.pending_flags & FLAG_WRITE:
            # Store-buffer drain (see CoreParams.store_buffer_depth).
            lat = lat / self.params.store_buffer_depth
        elif (level != L1 and ctx.pending_flags & FLAG_STREAM
              and lat >= 100):
            # Sequential-scan miss: the line buffer streams it from
            # memory; an in-order core gets about half the fat camp's
            # benefit (no out-of-order slip to run ahead).
            lat = lat / 2.0
        elif level != L1 and not ctx.pending_flags & FLAG_DEPENDENT:
            # Lockup-free L1: an independent access overlaps with the
            # compiler-scheduled slack before its first use.
            lat = max(0.0, lat - self.params.hit_under_miss_cycles)
        last_of_pass = ctx.pos == ctx.n - 1
        if (
            self.pass_target is not None
            and last_of_pass
            and ctx.passes + 1 >= self.pass_target
        ):
            # Response-time mode: the pass (query/transaction batch) ends
            # once the final reference is serviced.
            ctx.finished_at = t if level == L1 else t + lat
            ctx.state = _Context.IDLE
            return
        if level == L1 or lat <= 0:
            self._load_next_block(ctx)
        else:
            ctx.state = _Context.STALLED
            ctx.wake_time = t + lat
            ctx.wake_level = level
            ctx.wake_is_instr = False

    def settle(self, horizon: float) -> None:
        """Close the window: attribute the trailing interval up to horizon.

        A lean core accounts time as explicit intervals (processor
        sharing / all-stalled attribution), so the stretch between its
        last event and the measurement horizon must be attributed like
        any other interval.  Only the genuinely trailing case advances —
        a core whose next event lies *inside* the window never reaches
        here with ``next_time() < horizon``.  The machine calls this
        uniformly for both camps; :meth:`FatCore.settle` documents why
        the fat camp's is a no-op.
        """
        if self.t < horizon and self._next >= horizon:
            share = self._elapse(horizon)
            bd = self.breakdown
            for c in self.contexts:
                if c.state == _Context.RUNNABLE:
                    c.work_left -= share
                    bd.computation += share * c.comp_frac
                    bd.other += share * (1.0 - c.comp_frac)
            self._schedule()

    def step(self) -> float:
        """Advance to the next event and process every due transition.

        Returns the time of the event after it (+inf when the core has
        no work left), which :meth:`next_time` then reports.  Two passes
        over the contexts (DESIGN.md §14.4):

        1. charge each context runnable since the last event its share of
           the interval, and wake the stalled contexts now due;
        2. complete the due blocks, and fold every context into the next
           event time, runnable count and waker.

        Every wake precedes every completion, each in context order, so
        the hierarchy sees its accesses in the same order as ever.
        """
        t = self._next
        if t is math.inf:
            return t
        share = self._elapse(t)
        runnable = _Context.RUNNABLE
        stalled = _Context.STALLED
        contexts = self.contexts
        bd = self.breakdown
        computation = bd.computation
        other = bd.other
        deadline = t + _EPS
        for ctx in contexts:
            state = ctx.state
            if state == runnable:
                ctx.work_left -= share
                frac = ctx.comp_frac
                computation += share * frac
                other += share * (1.0 - frac)
            elif state == stalled and ctx.wake_time <= deadline:
                ctx.wake_time = math.inf
                ctx.state = runnable
                if not ctx.wake_is_instr:
                    # The data stall ended the block; move to the next one.
                    self._load_next_block(ctx)
        bd.computation = computation
        bd.other = other
        nxt = math.inf
        n_run = 0
        min_work = math.inf
        waker = None
        for ctx in contexts:
            if (ctx.state == runnable and ctx.has_pending
                    and ctx.work_left <= _EPS):
                self._complete_block(ctx, t)
            state = ctx.state
            if state == stalled:
                if ctx.wake_time < nxt:
                    nxt = ctx.wake_time
                    waker = ctx
            elif state == runnable:
                n_run += 1
                if ctx.work_left < min_work:
                    min_work = ctx.work_left
        if n_run:
            completion = t + min_work * n_run
            if completion < nxt:
                nxt = completion
        self._next = nxt
        self._n_run = n_run
        self._waker = waker
        return nxt
