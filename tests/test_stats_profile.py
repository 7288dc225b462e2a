"""Tests for measurement statistics and workload profiling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    PairedDelta,
    paired_delta,
    summarize,
    t_quantile_975,
)
from repro.workloads.profile import (
    format_profile,
    profile_trace,
    profile_workload,
)
from repro.simulator.trace import (
    FLAG_DEPENDENT,
    FLAG_WRITE,
    TraceBuilder,
    Workload,
)


class TestSummarize:
    def test_single_sample(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.half_width == 0.0 and s.n == 1

    def test_constant_samples_zero_width(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.half_width == 0.0

    def test_known_interval(self):
        # mean 10, sd 1, n=4 -> half = 3.182 * 1/2.
        s = summarize([9.0, 9.666666, 10.333333, 11.0])
        assert s.mean == pytest.approx(10.0, abs=1e-4)
        assert s.half_width == pytest.approx(
            3.182 * math.sqrt(sum((x - 10) ** 2 for x in
                                  [9.0, 9.666666, 10.333333, 11.0]) / 3 / 4),
            rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_relative_error(self):
        s = summarize([99.0, 101.0])
        assert 0 < s.half_width < 0.2 * s.mean
        assert s.low < 100 < s.high

    def test_t_quantiles_decrease(self):
        qs = [t_quantile_975(d) for d in range(1, 40)]
        assert qs == sorted(qs, reverse=True)
        assert qs[-1] == pytest.approx(1.96, abs=0.01)

    def test_t_quantile_validates(self):
        with pytest.raises(ValueError):
            t_quantile_975(0)


class TestPairedDelta:
    def test_consistent_improvement_significant(self):
        a = [10.0, 11.0, 9.5, 10.5]
        b = [12.0, 13.1, 11.4, 12.6]
        pd = paired_delta(a, b)
        assert isinstance(pd, PairedDelta)
        assert pd.significant
        assert pd.delta.mean == pytest.approx(2.025, abs=1e-9)
        assert pd.ratio_mean > 1.1

    def test_noise_not_significant(self):
        a = [10.0, 11.0, 9.5, 10.5]
        b = [10.4, 10.6, 9.9, 10.1]
        assert not paired_delta(a, b).significant

    def test_pairing_removes_between_seed_variance(self):
        """A tiny consistent effect is significant when paired even though
        the raw populations overlap heavily."""
        base = [10.0, 20.0, 30.0, 40.0, 50.0]
        improved = [x * 1.02 for x in base]
        pd = paired_delta(base, improved)
        assert pd.significant
        # Unpaired: the difference-of-means CI would dwarf the 2% effect.
        spread = summarize(base).half_width
        assert spread > pd.delta.mean

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_delta([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_delta([], [])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
def test_summary_bounds_property(samples):
    s = summarize(samples)
    assert s.low <= s.mean <= s.high
    assert min(samples) - 1e-6 <= s.mean <= max(samples) + 1e-6


def _trace(name, events):
    tb = TraceBuilder(name, ilp=2.0)
    r0 = tb.register_code("exec.seqscan", 0x1000, 8)
    r1 = tb.register_code("exec.hashjoin", 0x9000, 8)
    for i, (icount, addr, flags) in enumerate(events):
        tb.event(icount, addr, flags, r0 if i % 2 == 0 else r1)
    return tb.build()


class TestProfiles:
    def test_trace_profile_fields(self):
        tr = _trace("t", [
            (10, 0x100, FLAG_DEPENDENT),
            (30, 0x200, FLAG_WRITE),
            (20, 0x100, 0),
            (40, 0x300, FLAG_DEPENDENT | FLAG_WRITE),
        ])
        p = profile_trace(tr)
        assert p.references == 4
        assert p.instructions == 100
        assert p.distinct_lines == 3
        assert p.dependent == 0.5 and p.write == 0.5
        assert set(p.module_instructions) == {"exec.seqscan", "exec.hashjoin"}
        assert sum(p.module_instructions.values()) == 100

    def test_workload_sharing(self):
        shared = [(10, 0x100, 0), (10, 0x200, 0)]
        t1 = _trace("a", shared + [(10, 0x1000, 0)])
        t2 = _trace("b", shared + [(10, 0x2000, 0)])
        wp = profile_workload(Workload("w", [t1, t2]))
        assert wp.union_lines == 4
        assert wp.shared_lines == 2
        assert wp.sharing_fraction == 0.5

    def test_format_profile_renders(self):
        t1 = _trace("a", [(10, 0x100, 0)] * 4)
        text = format_profile(profile_workload(Workload("w", [t1])))
        assert "union data footprint" in text
        assert "exec.seqscan" in text

    def test_real_workload_shapes(self):
        """OLTP profiles as pointer-chasing with a large module mix."""
        from repro.workloads.tpcc import TpccDatabase
        tr = TpccDatabase(scale=0.05, seed=3).run_client(0, 8)
        p = profile_trace(tr)
        assert p.dependent > 0.35
        assert len(p.module_instructions) >= 6
        assert "storage.btree" in p.module_instructions
