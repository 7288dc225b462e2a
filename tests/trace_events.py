"""Decode a :class:`~repro.simulator.trace.Trace` into event tuples, and
build traces, tiny workloads and warm-walk columns from them.

The simulator reads the columns directly; tests compare traces event by
event, so the decoders (whole events, or one decoded field per event)
live here.
"""

from array import array

from repro.simulator.trace import (
    FLAG_WRITE,
    MAX_EVENT_ICOUNT,
    Trace,
    TraceBuilder,
    Workload,
)


def trace_events(trace) -> list[tuple[int, int, int, int]]:
    """The trace's events as ``(icount, addr, flags, region)`` tuples."""
    events = trace.events
    return [(events[k][0], a, events[k][1], events[k][2])
            for a, k in zip(trace.addrs, trace.kinds)]


def icounts(trace) -> list[int]:
    """The trace's decoded per-event icounts."""
    events = trace.events
    return [events[k][0] for k in trace.kinds]


def flags(trace) -> list[int]:
    """The trace's decoded per-event flags."""
    events = trace.events
    return [events[k][1] for k in trace.kinds]


def regions(trace) -> list[int]:
    """The trace's decoded per-event code-region ids."""
    events = trace.events
    return [events[k][2] for k in trace.kinds]


def trace_from_events(name, events, footprints, **kw) -> Trace:
    """A trace built straight from ``(icount, addr, flags, region)``
    tuples, bypassing :class:`TraceBuilder`.

    Deliberately laid out unlike a built trace: 64-bit addresses, a
    32-bit kind column and the event table in first-appearance order, so
    a simulation that matches a built trace's depends only on the decoded
    events.
    """
    triples = [(min(ic, MAX_EVENT_ICOUNT), flags, region)
               for ic, _, flags, region in events]
    index: dict = {}
    for triple in triples:
        index.setdefault(triple, len(index))
    return Trace(name, array("Q", (e[1] for e in events)),
                 array("I", map(index.__getitem__, triples)),
                 tuple(index), footprints, **kw)


def warm_columns(pattern):
    """``warm_block``'s ``(addrs, kinds, writes)`` arguments for a list of
    ``(core, addr, write)`` references, through a built trace."""
    tb = TraceBuilder("warm")
    for _, addr, write in pattern:
        tb.event(1, addr, FLAG_WRITE if write else 0)
    tr = tb.build()
    writes = bytes(flags & FLAG_WRITE for _, flags, _ in tr.events)
    return tr.addrs, tr.kinds, writes


def tiny_workload(name="tiny") -> Workload:
    """A hand-built two-trace workload (no engine run needed)."""
    traces = []
    for i in range(2):
        tb = TraceBuilder(f"{name}-client-{i}", ilp=2.0, branch_mpki=5.0,
                          ilp_inorder=1.0)
        rid = tb.register_code("code", 0x1000, 8)
        for j in range(50 + i):
            tb.event(j + 1, 0x4000_0000 + 64 * j, j % 8, rid)
        traces.append(tb.build())
    return Workload(name=name, traces=traces, kind="dss", saturated=False,
                    metadata={"scale": 1.0})


def traces_equal(a: Workload, b: Workload) -> bool:
    """Whether two workloads carry the same traces, event for event."""
    if len(a.traces) != len(b.traces):
        return False
    for ta, tb in zip(a.traces, b.traces):
        if (ta.name, ta.ilp, ta.ilp_inorder, ta.branch_mpki) != \
                (tb.name, tb.ilp, tb.ilp_inorder, tb.branch_mpki):
            return False
        if trace_events(ta) != trace_events(tb):
            return False
        if [(f.name, f.base, f.n_lines) for f in ta.footprints] != \
                [(f.name, f.base, f.n_lines) for f in tb.footprints]:
            return False
    return True
