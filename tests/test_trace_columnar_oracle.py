"""Differential oracle for the columnar trace representation.

The columnar :class:`~repro.simulator.trace.Trace` (an address column and
an event-kind column indexing a per-trace event table, DESIGN.md §11)
replaced an object-per-event representation.  This suite keeps an
independent *reference* implementation — one plain Python tuple per
access, no packing, no columns — and drives both through the same
randomized workloads, one cell per (kind, regime) with at least 50k
accesses, asserting:

- access-for-access equality of every event a trace yields, in order;
- identical replay order under the multiplexed per-thread interleaving a
  saturated machine performs (cyclic round-robin across client cursors);
- field-for-field identical ``MachineResult``s when the same events enter
  the simulator through two independent construction paths (the
  builder's interning vs columns laid out differently by
  :func:`tests.trace_events.trace_from_events` from the reference's
  tuples).

The reference is deliberately naive: if the columnar representation ever
drops, reorders, or mis-decodes a field, these tests name the first
diverging access instead of failing on an aggregate.
"""

import dataclasses
import random

import pytest

from repro.core.parallel import WARM_FRACTIONS
from repro.simulator.configs import fc_cmp
from repro.simulator.machine import Machine
from repro.simulator.trace import (
    MAX_EVENT_ICOUNT,
    CodeFootprint,
    TraceBuilder,
    Workload,
)
from tests.trace_events import (
    flags,
    icounts,
    regions,
    trace_events,
    trace_from_events,
)

#: Shared with the determinism suites so machine geometry builds once.
SCALE = 0.02

#: Per-cell generation profiles: flag mixes shaped like the real
#: workloads (OLTP writes and kernel time, DSS scan streams), client
#: counts shaped like the regimes.  ``clients * events_per_client`` is
#: >= 50_000 accesses in every cell.
CELLS = {
    ("oltp", "saturated"): dict(
        clients=8, events_per_client=6_500, regions=6,
        p_write=0.30, p_kernel=0.20, p_dep=0.15, p_stream=0.02,
        p_jump=0.05),
    ("oltp", "unsaturated"): dict(
        clients=1, events_per_client=52_000, regions=6,
        p_write=0.30, p_kernel=0.20, p_dep=0.15, p_stream=0.02,
        p_jump=0.05),
    ("dss", "saturated"): dict(
        clients=8, events_per_client=6_500, regions=4,
        p_write=0.02, p_kernel=0.05, p_dep=0.35, p_stream=0.60,
        p_jump=0.03),
    ("dss", "unsaturated"): dict(
        clients=1, events_per_client=52_000, regions=4,
        p_write=0.02, p_kernel=0.05, p_dep=0.35, p_stream=0.60,
        p_jump=0.03),
}

CELL_IDS = [f"{k}-{r}" for k, r in CELLS]

FLAG_WRITE, FLAG_DEP, FLAG_KERNEL, FLAG_JUMP, FLAG_STREAM = (
    0x1, 0x2, 0x4, 0x8, 0x10)


def access_at(trace, i):
    """Event ``i`` of a columnar trace as ``(icount, addr, flags,
    region)``, decoded from its columns by index."""
    icount, flags, region = trace.events[trace.kinds[i]]
    return icount, trace.addrs[i], flags, region


class ReferenceTrace:
    """The pre-columnar representation: one ``(icount, addr, flags,
    region)`` tuple per access, stored outright.

    Implements the columnar Trace's aggregate statistics by reading the
    tuples directly — no packing, no bit twiddling — so any divergence
    between the two is a columnar-representation bug, not a shared one.
    """

    def __init__(self, name, events, footprints):
        self.name = name
        self.events = [
            (min(ic, MAX_EVENT_ICOUNT), addr, flags, region)
            for ic, addr, flags, region in events
        ]
        self.footprints = footprints

    def __len__(self):
        return len(self.events)

    @property
    def total_instructions(self):
        return sum(e[0] for e in self.events)

    def dependent_fraction(self):
        if not self.events:
            return 0.0
        return sum(1 for e in self.events if e[2] & FLAG_DEP) / len(self.events)

    def distinct_lines(self):
        return len({e[1] >> 6 for e in self.events})


def _gen_client(rng, profile, client):
    """One client's randomized event list (raw, pre-clamp icounts)."""
    events = []
    for i in range(profile["events_per_client"]):
        draw = rng.random()
        if draw < 0.001:
            icount = MAX_EVENT_ICOUNT + rng.randrange(1, 2**34)  # clamps
        elif draw < 0.05:
            icount = 0
        else:
            icount = rng.randrange(1, 400)
        addr = rng.randrange(0, 2**40)
        flags = 0
        if rng.random() < profile["p_write"]:
            flags |= FLAG_WRITE
        if rng.random() < profile["p_dep"]:
            flags |= FLAG_DEP
        if rng.random() < profile["p_kernel"]:
            flags |= FLAG_KERNEL
        if rng.random() < profile["p_jump"]:
            flags |= FLAG_JUMP
        if rng.random() < profile["p_stream"]:
            flags |= FLAG_STREAM
        region = rng.randrange(profile["regions"])
        events.append((icount, addr, flags, region))
    return events


def _build_cell(kind, regime):
    """Both representations of one randomized cell, clients aligned."""
    profile = CELLS[(kind, regime)]
    rng = random.Random(f"{kind}|{regime}")  # stable across hash seeds
    columnar, reference = [], []
    for c in range(profile["clients"]):
        tb = TraceBuilder(f"{kind}-{regime}-c{c}", ilp=2.0,
                          branch_mpki=6.0, ilp_inorder=1.2)
        rids = [tb.register_code(f"mod{m}", 0x10_0000 + 0x4000 * m, 16)
                for m in range(profile["regions"])]
        footprints = [CodeFootprint(f"mod{m}", 0x10_0000 + 0x4000 * m, 16)
                      for m in range(profile["regions"])]
        events = _gen_client(rng, profile, c)
        for icount, addr, flags, region in events:
            tb.event(icount, addr, flags, rids[region])
        columnar.append(tb.build())
        reference.append(ReferenceTrace(f"{kind}-{regime}-c{c}", events,
                                        footprints))
    return columnar, reference


_CELL_CACHE = {}


def _cell(kind, regime):
    got = _CELL_CACHE.get((kind, regime))
    if got is None:
        got = _CELL_CACHE[(kind, regime)] = _build_cell(kind, regime)
    return got


@pytest.mark.parametrize("kind,regime", list(CELLS), ids=CELL_IDS)
def test_access_for_access_equality(kind, regime):
    """Every access of every client trace decodes to exactly the tuple
    the reference holds — same order, same fields, clamp included."""
    columnar, reference = _cell(kind, regime)
    total = 0
    for tr, ref in zip(columnar, reference):
        assert len(tr) == len(ref)
        total += len(tr)
        assert trace_events(tr) == ref.events
        assert icounts(tr) == [e[0] for e in ref.events]
        assert flags(tr) == [e[2] for e in ref.events]
        assert regions(tr) == [e[3] for e in ref.events]
        rng = random.Random(len(ref))
        for i in rng.sample(range(len(ref)), 200):
            assert access_at(tr, i) == ref.events[i]
    assert total >= 50_000


@pytest.mark.parametrize("kind,regime", list(CELLS), ids=CELL_IDS)
def test_aggregate_statistics_match_reference(kind, regime):
    columnar, reference = _cell(kind, regime)
    for tr, ref in zip(columnar, reference):
        assert tr.total_instructions == ref.total_instructions
        assert tr.dependent_fraction() == ref.dependent_fraction()
        assert tr.distinct_lines() == ref.distinct_lines()


def _interleave(traces, quantum, total, at):
    """Reference replay order: cyclic round-robin, ``quantum`` accesses
    per client per turn — the multiplexed-context schedule a saturated
    machine applies when software threads outnumber hardware contexts.

    ``at(trace, i)`` reads event ``i`` of either representation, so the
    columnar and reference sides produce comparable ``(client, event)``
    sequences.
    """
    order = []
    cursors = [0] * len(traces)
    while len(order) < total:
        for c, tr in enumerate(traces):
            n = len(tr)
            if n == 0:
                continue
            for _ in range(quantum):
                order.append((c, at(tr, cursors[c] % n)))
                cursors[c] += 1
                if len(order) == total:
                    return order
    return order


@pytest.mark.parametrize("kind,regime", list(CELLS), ids=CELL_IDS)
def test_replay_interleaving_matches_reference(kind, regime):
    """The interleaved per-thread replay order over the columnar traces
    is identical, access for access, to the reference's — including the
    cyclic wrap when a cursor passes the end of its trace."""
    columnar, reference = _cell(kind, regime)
    total = min(60_000, sum(len(t) for t in columnar) + 1_000)  # forces wrap
    for quantum in (1, 7, 64):
        a = _interleave(columnar, quantum, total, access_at)
        b = _interleave(reference, quantum, total,
                        lambda ref, i: ref.events[i])
        assert a == b


@pytest.mark.slow
@pytest.mark.parametrize("kind,regime", list(CELLS), ids=CELL_IDS)
def test_machine_result_identical_across_construction_paths(kind, regime):
    """Two independent construction paths — the engine-side builder vs
    :func:`trace_from_events` over the reference's tuples — must give
    field-for-field identical MachineResults."""
    columnar, reference = _cell(kind, regime)
    rebuilt = [
        trace_from_events(tr.name, ref.events, ref.footprints, ilp=tr.ilp,
                          branch_mpki=tr.branch_mpki,
                          ilp_inorder=tr.ilp_inorder)
        for tr, ref in zip(columnar, reference)
    ]
    config = fc_cmp(n_cores=2, l2_nominal_mb=1.0, scale=SCALE)
    mode = "response" if regime == "unsaturated" else "throughput"
    results = []
    for traces in (columnar, rebuilt):
        wl = Workload(name=f"oracle-{kind}-{regime}", traces=traces,
                      kind=kind, saturated=(regime == "saturated"))
        results.append(Machine(config).run(
            wl, mode=mode, measure_cycles=15_000,
            warm_fraction=WARM_FRACTIONS[kind]))
    assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])
