"""Decode a :class:`~repro.simulator.trace.Trace` into event tuples.

The simulator reads the packed columns directly; tests compare traces
event by event, so the decoder lives here.
"""


def trace_events(trace) -> list[tuple[int, int, int, int]]:
    """The trace's events as ``(icount, addr, flags, region)`` tuples."""
    return [(m >> 24, a, m & 0xFF, (m >> 8) & 0xFFFF)
            for a, m in zip(trace.addrs, trace.meta)]
