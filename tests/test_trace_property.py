"""Property-based tests for the columnar trace pipeline.

Hypothesis drives randomized event streams through the full build →
serialize → load → replay path and through every public view, checking
the invariants the differential oracle checks on shaped workloads:

- a build → freeze → thaw round-trip through the trace store preserves
  every access (and every piece of trace/workload metadata) exactly;
- degenerate shapes — zero-length traces, single-access traces — build,
  serialize, and replay cleanly.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import WARM_FRACTIONS
from repro.simulator.configs import fc_cmp
from repro.simulator.machine import Machine
from repro.simulator.trace import (
    MAX_EVENT_ICOUNT,
    TraceBuilder,
    Workload,
)
from repro.workloads.tracestore import TraceStore
from tests.trace_events import trace_events

SCALE = 0.02

#: One randomized event: (icount, addr, flags).  icounts straddle the
#: clamp boundary; flags cover all five defined bits.
EVENTS = st.lists(
    st.tuples(
        st.integers(0, MAX_EVENT_ICOUNT + 2**34),
        st.integers(0, 2**40),
        st.integers(0, 0x1F),
    ),
    max_size=120,
)


def _build(name, events, n_regions=3):
    tb = TraceBuilder(name, ilp=1.8, branch_mpki=4.0, ilp_inorder=1.1)
    rids = [tb.register_code(f"m{i}", 0x2000 * (i + 1), 8)
            for i in range(n_regions)]
    for j, (icount, addr, flags) in enumerate(events):
        tb.event(icount, addr, flags, rids[j % n_regions])
    return tb.build()


def _expected(events, n_regions=3):
    return [
        (min(ic, MAX_EVENT_ICOUNT), addr, flags, j % n_regions)
        for j, (ic, addr, flags) in enumerate(events)
    ]


@settings(max_examples=30, deadline=None)
@given(per_client=st.lists(EVENTS, min_size=1, max_size=4))
def test_store_roundtrip_preserves_every_access(per_client):
    traces = [_build(f"c{i}", ev) for i, ev in enumerate(per_client)]
    wl = Workload(name="prop", traces=traces, kind="dss", saturated=False,
                  metadata={"scale": 1.0, "tag": "prop"})
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(root)
        store.put(("prop", 0), wl)
        got = store.get(("prop", 0))
    assert got is not None
    assert (got.name, got.kind, got.saturated, got.metadata) == \
        (wl.name, wl.kind, wl.saturated, wl.metadata)
    assert len(got.traces) == len(traces)
    for thawed, events in zip(got.traces, per_client):
        assert trace_events(thawed) == _expected(events)
        assert [(f.name, f.base, f.n_lines) for f in thawed.footprints] == \
            [("m0", 0x2000, 8), ("m1", 0x4000, 8), ("m2", 0x6000, 8)]
        assert (thawed.ilp, thawed.ilp_inorder, thawed.branch_mpki) == \
            (1.8, 1.1, 4.0)


def _replay(traces, mode="throughput"):
    wl = Workload(name="edge", traces=traces, kind="dss", saturated=False)
    config = fc_cmp(n_cores=2, l2_nominal_mb=1.0, scale=SCALE)
    return Machine(config).run(wl, mode=mode, measure_cycles=5_000,
                               warm_fraction=WARM_FRACTIONS["dss"])


class TestDegenerateShapes:
    def test_zero_length_trace_builds_and_serializes(self):
        tr = _build("empty", [])
        assert len(tr) == 0 and trace_events(tr) == []
        wl = Workload(name="z", traces=[tr, _build("live", [(5, 0x40, 0)])])
        with tempfile.TemporaryDirectory() as root:
            store = TraceStore(root)
            store.put(("z", 0), wl)
            got = store.get(("z", 0))
        assert got is not None
        assert len(got.traces[0]) == 0
        assert trace_events(got.traces[1]) == [(5, 0x40, 0, 0)]

    def test_zero_length_trace_replays_cleanly(self):
        """An empty client alongside live ones cannot advance a context:
        it is dropped, the live traces measure normally."""
        live = _build("live", [(10, 0x1000 + 64 * i, 0) for i in range(50)])
        result = _replay([_build("empty", []), live])
        baseline = _replay([live])
        assert result.retired == baseline.retired
        assert result.ipc == baseline.ipc

    def test_all_empty_bundle_measures_empty_window(self):
        result = _replay([_build("e0", []), _build("e1", [])])
        assert result.retired == 0 and result.ipc == 0.0

    def test_single_access_trace_replays_cleanly(self):
        tr = _build("one", [(7, 0x2040, 0x1)])
        result = _replay([tr])
        assert result.retired > 0
        response = _replay([tr], mode="response")
        assert response.response_cycles is not None
        assert response.response_cycles > 0
