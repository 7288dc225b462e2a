"""Decode a :class:`~repro.simulator.trace.Trace` into event tuples, and
build traces and warm-walk columns from them.

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
