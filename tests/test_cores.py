"""Unit tests for the fat/lean core timing models."""

import math
import random

import pytest

from repro.simulator.cores import (
    CLIENT_QUANTUM_EVENTS,
    FatCore,
    LeanCore,
    _Context,
    fat_core_params,
    lean_core_params,
)
from repro.simulator.hierarchy import (
    L1,
    L2,
    MEM,
    HierarchyParams,
    SharedL2Hierarchy,
)
from repro.simulator.trace import (
    FLAG_CODE_JUMP,
    FLAG_DEPENDENT,
    FLAG_STREAM,
    FLAG_WRITE,
    TraceBuilder,
)
from tests.trace_events import trace_events


def make_trace(events, name="t", ilp=2.0, ilp_inorder=1.0):
    tb = TraceBuilder(name, ilp=ilp, branch_mpki=0.0, ilp_inorder=ilp_inorder)
    rid = tb.register_code("mod", 0x10_0000, 4)
    for icount, addr, flags in events:
        tb.event(icount, addr, flags, rid)
    return tb.build()


def make_hier(n_cores=1, l2_latency=20, mem_latency=300):
    return SharedL2Hierarchy(HierarchyParams(
        n_cores=n_cores, l2_mb=1.0, l2_nominal_mb=1.0,
        l2_latency=l2_latency, mem_latency=mem_latency,
    ))


def run_fat(events, steps=None, **tr_kw):
    trace = make_trace(events, **tr_kw)
    core = FatCore(0, fat_core_params(), make_hier(), [trace])
    steps = len(events) if steps is None else steps
    for _ in range(steps):
        core.step()
    return core


class TestFatCore:
    def test_compute_accumulates_at_effective_rate(self):
        core = run_fat([(40, 0x100, 0)] * 4, ilp=2.0)
        # 4 blocks of 40 instructions at rate min(4, 2.0) = 2.0.
        assert core.breakdown.computation == pytest.approx(80.0)
        assert core.retired == 160

    def test_dependent_miss_exposes_latency(self):
        # Two accesses to distinct cold lines: both L2 misses -> memory.
        dep = run_fat([(40, 0x100, FLAG_DEPENDENT),
                       (40, 0x40_0000, FLAG_DEPENDENT)])
        indep = run_fat([(40, 0x100, 0), (40, 0x40_0000, 0)])
        assert dep.breakdown.d_stalls > indep.breakdown.d_stalls

    def test_l1_hits_expose_nothing(self):
        core = run_fat([(40, 0x100, FLAG_DEPENDENT)] * 10)
        # After the first touch the line stays in L1.
        first_only = core.breakdown.d_stalls
        core2 = run_fat([(40, 0x100, FLAG_DEPENDENT)])
        assert first_only == pytest.approx(core2.breakdown.d_stalls)

    def test_store_buffer_absorbs_write_latency(self):
        write = run_fat([(40, 0x40_0000, FLAG_WRITE)])
        read = run_fat([(40, 0x40_0000, FLAG_DEPENDENT)])
        assert write.breakdown.d_stalls < read.breakdown.d_stalls / 4

    def test_stream_softens_dependent_memory_miss(self):
        plain = run_fat([(40, 0x40_0000, FLAG_DEPENDENT)])
        stream = run_fat([(40, 0x40_0000, FLAG_DEPENDENT | FLAG_STREAM)])
        assert stream.breakdown.d_stalls < plain.breakdown.d_stalls

    def test_stream_does_not_soften_l2_hits(self):
        """The STREAM flag targets off-chip latency only (>=100 cycles)."""
        hier = make_hier()
        # Warm the line into L2 (not L1) via another core? single core:
        # touch once (goes to L2+L1), evict from L1 by filling the set.
        trace = make_trace(
            [(10, 0x40_0000, FLAG_DEPENDENT | FLAG_STREAM)])
        core = FatCore(0, fat_core_params(), hier, [trace])
        hier.l2.access(0x40_0000 >> 6, False)  # L2-resident, L1-cold
        core.step()
        # L2 hit at 20 cycles: full dependent exposure (20 - dep_hide).
        assert core.breakdown.d_l2 == pytest.approx(
            20 - fat_core_params().dep_hide_cycles, abs=3)

    def test_branch_mpki_feeds_other(self):
        tb = TraceBuilder("t", ilp=2.0, branch_mpki=10.0)
        rid = tb.register_code("m", 0x10_0000, 4)
        tb.event(1000, 0x100, 0, rid)
        core = FatCore(0, fat_core_params(), make_hier(), [tb.build()])
        core.step()
        expected = 1000 * 10.0 / 1000.0 * fat_core_params().branch_penalty
        assert core.breakdown.other == pytest.approx(expected)

    def test_response_pass_target(self):
        trace = make_trace([(10, 0x100, 0)] * 5)
        core = FatCore(0, fat_core_params(), make_hier(), [trace])
        core.pass_target = 1
        while core.ctx.finished_at is math.inf:
            core.step()
        assert core.retired == 50
        assert core.next_time() is math.inf  # idle afterwards

    def test_idle_core_has_no_events(self):
        core = FatCore(0, fat_core_params(), make_hier(), [])
        assert core.next_time() is math.inf
        core.step()  # no-op
        assert core.retired == 0


class TestLeanCore:
    def params(self):
        return lean_core_params()

    def test_single_context_exposes_full_latency(self):
        trace = make_trace([(20, 0x40_0000, FLAG_DEPENDENT)], ilp_inorder=1.0)
        core = LeanCore(0, self.params(), make_hier(), [[trace]])
        for _ in range(4):
            core.step()
        # Memory latency fully exposed as a data stall.
        assert core.breakdown.d_mem > 250

    def test_multithreading_hides_stalls(self):
        """Four contexts with interleaved misses: core-level stall time is
        far below the single-context case."""
        def traces(n):
            return [
                [make_trace([(60, 0x40_0000 + 0x1_0000 * (c * 37 + i), 0)
                             for i in range(30)], name=f"c{c}",
                            ilp_inorder=1.0)]
                for c in range(n)
            ]

        solo = LeanCore(0, self.params(), make_hier(), traces(1))
        quad = LeanCore(0, self.params(), make_hier(), traces(4))
        for core in (solo, quad):
            for _ in range(200):
                core.step()
        solo_frac = solo.breakdown.d_stalls / max(1e-9, solo.breakdown.busy)
        quad_frac = quad.breakdown.d_stalls / max(1e-9, quad.breakdown.busy)
        assert quad_frac < solo_frac * 0.65

    def test_processor_sharing_conserves_issue_bandwidth(self):
        """Two compute-only contexts retire at the same aggregate rate as
        one (they share the core's issue slots)."""
        ev = [(100, 0x100, 0)] * 10
        horizon = 3000.0
        rates = {}
        for label, n in (("solo", 1), ("duo", 2)):
            ctx_traces = [
                [make_trace(ev, name=f"{label}{i}", ilp_inorder=1.0)]
                for i in range(n)
            ]
            core = LeanCore(0, self.params(), make_hier(), ctx_traces)
            while core.t < horizon:
                core.step()
            rates[label] = core.retired / core.t
        assert rates["duo"] == pytest.approx(rates["solo"], rel=0.1)

    def test_breakdown_conserves_elapsed_time(self):
        trace = make_trace(
            [(30, 0x40_0000 + i * 4096, FLAG_DEPENDENT if i % 2 else 0)
             for i in range(50)], ilp_inorder=1.0)
        core = LeanCore(0, self.params(), make_hier(), [[trace]])
        for _ in range(300):
            core.step()
        bd = core.breakdown
        assert bd.total == pytest.approx(core.t, rel=1e-6)

    def test_hit_under_miss_reduces_independent_exposure(self):
        hier = make_hier()
        hier.l2.access(0x40_0000 >> 6, False)
        dep_tr = make_trace([(20, 0x40_0000, FLAG_DEPENDENT)],
                            ilp_inorder=1.0)
        core = LeanCore(0, self.params(), hier, [[dep_tr]])
        for _ in range(4):
            core.step()
        dep_stall = core.breakdown.d_l2

        hier2 = make_hier()
        hier2.l2.access(0x40_0000 >> 6, False)
        ind_tr = make_trace([(20, 0x40_0000, 0)], ilp_inorder=1.0)
        core2 = LeanCore(0, self.params(), hier2, [[ind_tr]])
        for _ in range(4):
            core2.step()
        assert core2.breakdown.d_l2 < dep_stall


class TestContextRotation:
    def test_quantum_rotates_clients(self):
        t1 = make_trace([(1, 0x100, 0)] * 10, name="a")
        t2 = make_trace([(1, 0x200, 0)] * 10, name="b")
        ctx = _Context([t1, t2], fat_core_params(), quantum=4)
        seen = []
        for _ in range(12):
            _, addr, _, _ = ctx.advance()
            seen.append(addr)
        # First 4 from trace a, next 4 from trace b, then a again.
        assert seen[:4] == [0x100] * 4
        assert seen[4:8] == [0x200] * 4
        assert seen[8:12] == [0x100] * 4

    def test_rotation_resumes_position(self):
        t1 = make_trace([(i + 1, 0x100, 0) for i in range(10)], name="a")
        t2 = make_trace([(100, 0x200, 0)] * 10, name="b")
        ctx = _Context([t1, t2], fat_core_params(), quantum=3)
        icounts = [ctx.advance()[0] for _ in range(9)]
        # a: 1,2,3  b: 100,100,100  a resumes: 4,5,6
        assert icounts == [1, 2, 3, 100, 100, 100, 4, 5, 6]

    def test_wrap_counts_pass_and_restarts_at_offset(self):
        t1 = make_trace([(i, 0x100, 0) for i in range(1, 7)], name="a")
        ctx = _Context([t1], fat_core_params(), offsets=[2],
                       quantum=CLIENT_QUANTUM_EVENTS)
        icounts = [ctx.advance()[0] for _ in range(6)]
        # Starts at offset 2 (icount 3) through end, then wraps to offset.
        assert icounts == [3, 4, 5, 6, 3, 4]
        assert ctx.passes == 1


def mixed_trace(name, seed, n_events=150, branch_mpki=4.0):
    """A randomized trace mixing L1 hits, cold misses and code jumps.

    Four 512-line code regions overflow the 32 KB L1I, so jumps between
    them expose instruction stalls; a few hot data lines hit in the L1
    while the rest go to the L2 or memory.
    """
    rng = random.Random(seed)
    tb = TraceBuilder(name, ilp=2.0, branch_mpki=branch_mpki,
                      ilp_inorder=1.2)
    regions = [tb.register_code(f"m{i}", 0x10_0000 * (i + 1), 512)
               for i in range(4)]
    hot = [0x100 + 64 * i for i in range(4)]
    for _ in range(n_events):
        if rng.random() < 0.5:
            addr = rng.choice(hot)
        else:
            addr = 0x4000_0000 + rng.randrange(1 << 16) * 64
        flags = rng.choice([0, FLAG_DEPENDENT, FLAG_WRITE, FLAG_CODE_JUMP,
                            FLAG_DEPENDENT | FLAG_STREAM])
        tb.event(rng.randrange(1, 200), addr, flags, rng.choice(regions))
    return tb.build()


def recomputed_next_time(core):
    """The earliest wake or processor-sharing completion, from scratch."""
    wakes = [c.wake_time for c in core.contexts
             if c.state == _Context.STALLED]
    work = [c.work_left for c in core.contexts
            if c.state == _Context.RUNNABLE]
    nxt = min(wakes, default=math.inf)
    if work:
        nxt = min(nxt, core.t + min(work) * len(work))
    return nxt


class TestLeanLoopInvariants:
    def test_cached_next_time_and_time_conservation(self):
        """At every step the returned next time is the cached one and the
        from-scratch one, and the breakdown partitions the elapsed time."""
        hier = make_hier(mem_latency=300)
        ctx_traces = [[mixed_trace(f"c{c}q{q}", seed=10 * c + q)
                       for q in range(2)] for c in range(4)]
        core = LeanCore(0, lean_core_params(), hier, ctx_traces)
        for ctx in core.contexts:
            # Rotate queued clients every few events instead of 2048.
            ctx.quantum = ctx.quantum_left = 7
        assert core.next_time() == recomputed_next_time(core)
        rotated = set()
        saw_instr_stall = saw_all_stalled = False
        for _ in range(3000):
            nxt = core.step()
            assert nxt == core.next_time() == recomputed_next_time(core)
            assert core.breakdown.total == pytest.approx(core.t, rel=1e-9)
            rotated.update(ctx.trace_idx for ctx in core.contexts)
            states = [ctx.state for ctx in core.contexts]
            saw_instr_stall |= any(
                ctx.state == _Context.STALLED and ctx.wake_is_instr
                for ctx in core.contexts)
            saw_all_stalled |= _Context.RUNNABLE not in states
        # The run exercised every mechanism the loop handles.
        assert rotated == {0, 1}
        assert saw_instr_stall and saw_all_stalled
        counts = hier.stats.data_level_counts
        assert counts[L1] > 0 and sum(counts) > counts[L1]
        # settle closes the trailing interval and refreshes the cache.
        horizon = core.t + (core.next_time() - core.t) / 3
        core.settle(horizon)
        assert core.t == horizon
        assert core.next_time() == recomputed_next_time(core)
        assert core.breakdown.total == pytest.approx(core.t, rel=1e-9)

    @pytest.mark.parametrize("via_step", [False, True])
    def test_all_stalled_interval_goes_to_first_waker_on_a_tie(self,
                                                              via_step):
        """With every context stalled, the interval takes the category of
        the *first* context with the earliest wake, whether construction
        (via_step=False) or a step's fold found the tie."""
        traces = [[make_trace([(20, 0x100 + 64 * c, 0)] * 4, name=f"c{c}")]
                  for c in range(3)]
        core = LeanCore(0, lean_core_params(), make_hier(), traces)
        a, b, c = core.contexts
        for ctx, is_instr, level in ((a, False, MEM), (b, True, L2)):
            ctx.state = _Context.STALLED
            ctx.wake_time = 100.0
            ctx.wake_is_instr = is_instr
            ctx.wake_level = level
        if via_step:
            # c completes the last block of its pass at t=1 and goes
            # idle; that step's fold is what finds the tie.  (Its first
            # block's jump bubble left it stalled at construction.)
            c.state = _Context.RUNNABLE
            c.wake_time = math.inf
            c.work_left = 1.0
            c.pos = c.n - 1
            core.pass_target = 1
        else:
            c.state = _Context.IDLE
        core._schedule()
        if via_step:
            assert core.step() == 100.0
            assert c.state == _Context.IDLE
        start = core.t
        assert core.step() == core.next_time()
        assert core.breakdown.d_mem == 100.0 - start
        assert core.breakdown.i_l2 == 0.0


class TestBlockWork:
    """The per-block work a core derives from the event's icount and meta
    word, against the expressions the step loops once evaluated inline,
    block by block and bit for bit."""

    @pytest.mark.parametrize("camp", ["fc", "lc"])
    def test_work_and_jump_match_inline_expressions(self, camp):
        traces = [mixed_trace(f"q{q}", seed=20 + q, n_events=300,
                              branch_mpki=mpki)
                  for q, mpki in enumerate((4.0, 7.5, 1.3))]
        hier = make_hier()
        if camp == "fc":
            params = fat_core_params()
            core = FatCore(0, params, hier, traces)
        else:
            params = lean_core_params()
            core = LeanCore(0, params, hier, [traces])
        ctx = core.contexts[0]
        # Rotate queued clients every few events instead of 2048.
        ctx.quantum = ctx.quantum_left = 7
        # The last block loaded so far: a lean core loads its first one
        # at construction, a fat core none (position -1).
        prev = (ctx.trace_idx, ctx.pos)
        blocks = []
        instr_block = hier.instr_block

        def recording_instr_block(core_id, base, fp_lines, n_lines,
                                  jumped, now):
            # The context looks work up in the current trace's table.
            assert ctx.work is ctx.work_tables[ctx.trace_idx]
            blocks.append((ctx.trace_idx, ctx.pos, n_lines, bool(jumped)))
            return instr_block(core_id, base, fp_lines, n_lines, jumped,
                               now)

        hier.instr_block = recording_instr_block
        n_events = sum(len(t) for t in traces)
        while len(blocks) < 2 * n_events:
            core.step()
        computation = other = 0.0
        events = [trace_events(t) for t in traces]
        for idx, pos, n_lines, jumped in blocks:
            trace = traces[idx]
            icount, _, flags, region = events[idx][pos]
            if pos and prev == (idx, pos - 1):
                ref_jumped = (region != events[idx][pos - 1][3]
                              or bool(flags & FLAG_CODE_JUMP))
            else:
                ref_jumped = True  # first block, rotation or wrap
            prev = (idx, pos)
            assert jumped == ref_jumped
            assert n_lines == max(1, icount // 16)
            compute = icount / ctx.rate
            branch = (icount * trace.branch_mpki / 1000.0
                      * params.branch_penalty)
            assert ctx.work_tables[idx][icount] == (
                compute, branch, max(1, icount // 16))
            computation += compute
            other += branch
        # The walk rotated over every trace and covered every event.
        assert {(i, p) for i, p, _, _ in blocks} == {
            (i, p) for i, t in enumerate(traces) for p in range(len(t))}
        if camp == "fc":
            # A fat core accounts each block's work as it completes it,
            # so its sums replay the reference values in the same order.
            assert core.breakdown.computation == computation
            assert core.breakdown.other == other
