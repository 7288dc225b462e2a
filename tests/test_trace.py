"""Unit tests for the trace format and builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.trace import (
    FLAG_DEPENDENT,
    FLAG_STREAM,
    FLAG_WRITE,
    TraceBuilder,
    Workload,
)
from tests.trace_events import flags, icounts, regions, trace_events


def build_trace(events, **kw):
    tb = TraceBuilder("t", **kw)
    rid = tb.register_code("mod", 0x1000, 8)
    for icount, addr, flags in events:
        tb.event(icount, addr, flags, rid)
    return tb.build()


class TestBuilder:
    def test_basic_roundtrip(self):
        tr = build_trace([(10, 0x100, 0), (20, 0x200, FLAG_WRITE)])
        assert len(tr) == 2
        assert icounts(tr) == [10, 20]
        assert list(tr.addrs) == [0x100, 0x200]
        assert tr.total_instructions == 30

    def test_empty_trace_builds_cleanly(self):
        # Zero-length traces are legal (a client that did no work): they
        # carry no events, replay as a no-op, and every aggregate is zero.
        tr = TraceBuilder("t").build()
        assert len(tr) == 0
        assert tr.total_instructions == 0
        assert tr.dependent_fraction() == 0.0
        assert tr.distinct_lines() == 0
        assert trace_events(tr) == []

    def test_per_event_accessors(self):
        tr = build_trace([(10, 0x100, 0), (20, 0x240, FLAG_WRITE)])
        assert trace_events(tr) == [(10, 0x100, 0, 0),
                                    (20, 0x240, FLAG_WRITE, 0)]
        assert regions(tr) == [0, 0]

    def test_negative_icount_rejected(self):
        tb = TraceBuilder("t")
        with pytest.raises(ValueError):
            tb.event(-1, 0x100)

    def test_register_code_deduplicates(self):
        tb = TraceBuilder("t")
        a = tb.register_code("m", 0x1000, 4)
        b = tb.register_code("m", 0x1000, 4)
        c = tb.register_code("n", 0x2000, 4)
        assert a == b and c != a

    def test_flag_fractions(self):
        tr = build_trace([
            (1, 0x100, FLAG_WRITE),
            (1, 0x200, FLAG_DEPENDENT),
            (1, 0x300, FLAG_DEPENDENT | FLAG_WRITE),
            (1, 0x400, 0),
        ])
        assert tr.dependent_fraction() == 0.5

    def test_distinct_lines(self):
        tr = build_trace([(1, 0, 0), (1, 63, 0), (1, 64, 0), (1, 128, 0)])
        assert tr.distinct_lines() == 3

    def test_ilp_inorder_defaults(self):
        tr = build_trace([(1, 0, 0)], ilp=2.0)
        assert tr.ilp_inorder == pytest.approx(1.5)
        tr2 = build_trace([(1, 0, 0)], ilp=2.0, ilp_inorder=1.1)
        assert tr2.ilp_inorder == 1.1

    def test_stream_flag_stored(self):
        tr = build_trace([(1, 0x100, FLAG_STREAM)])
        assert flags(tr)[0] & FLAG_STREAM

    def test_icount_clamped_to_storage(self):
        tr = build_trace([(2**40, 0x100, 0)])
        assert icounts(tr)[0] == 0xFFFF_FFFF


class TestLayout:
    """Five bytes per event: a 32-bit address column when the addresses
    fit, a one-byte kind column when the event table is small."""

    def test_small_trace_uses_narrow_columns(self):
        tr = build_trace([(10, 0xFFFF_FFC0, 0), (20, 0x240, FLAG_WRITE)])
        assert (tr.addrs.typecode, tr.addrs.itemsize) == ("I", 4)
        assert (tr.kinds.typecode, tr.kinds.itemsize) == ("B", 1)
        assert tr.events == ((10, 0, 0), (20, FLAG_WRITE, 0))

    def test_address_past_32_bits_keeps_64_bit_column(self):
        tr = build_trace([(1, 0x100, 0), (1, 2**32, 0)])
        assert tr.addrs.typecode == "Q"
        assert list(tr.addrs) == [0x100, 2**32]

    @pytest.mark.parametrize("n_words,typecode",
                             [(256, "B"), (300, "H"), (70_000, "I")])
    def test_kind_column_widens_with_the_table(self, n_words, typecode):
        tr = build_trace([(i, 64 * i, 0) for i in range(n_words)])
        assert len(tr.events) == n_words
        assert tr.kinds.typecode == typecode
        assert icounts(tr) == list(range(n_words))

    def test_event_table_is_ordered_by_packed_word(self):
        """Equal event streams intern the same way, whatever order their
        kinds first appear in."""
        tr = build_trace([(5, 0, FLAG_WRITE), (5, 64, 0), (1, 128, 0)])
        assert tr.events == ((1, 0, 0), (5, 0, 0), (5, FLAG_WRITE, 0))
        assert list(tr.kinds) == [2, 1, 0]

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["oltp", "dss"])
    @pytest.mark.parametrize("regime", ["saturated", "unsaturated"])
    def test_study_bundles_use_at_most_5_bytes_per_event(self, kind,
                                                         regime):
        from repro.workloads import driver
        workload = driver.workload_for(kind, regime, 0.05)
        for tr in workload.traces:
            assert tr.addrs.itemsize + tr.kinds.itemsize <= 5, tr.name


class TestWorkload:
    def test_requires_traces(self):
        with pytest.raises(ValueError):
            Workload("w", [])

    def test_counts(self):
        t1 = build_trace([(5, 0, 0)])
        t2 = build_trace([(7, 0, 0), (3, 64, 0)])
        wl = Workload("w", [t1, t2])
        assert wl.n_clients == 2
        assert wl.total_instructions() == 15


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 10_000),
              st.integers(0, 2**40),
              st.integers(0, 0x1F)),
    min_size=1, max_size=200,
))
def test_trace_roundtrip_property(events):
    """Property: every event survives the builder byte-for-byte."""
    tr = build_trace(events)
    assert icounts(tr) == [min(e[0], 0xFFFF_FFFF) for e in events]
    assert list(tr.addrs) == [e[1] for e in events]
    assert flags(tr) == [e[2] for e in events]
    assert tr.total_instructions == sum(e[0] for e in events)
