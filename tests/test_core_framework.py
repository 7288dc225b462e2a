"""Tests for the characterization framework: taxonomy, counters,
reporting, historic data, validation math, and the experiment runner."""

import pytest

from repro.core import claims, historic, reporting
from repro.core.breakdown import Breakdown
from repro.core.counters import cpi_stack
from repro.core.taxonomy import Camp, Regime, grid, table1
from repro.core.validation import OPENPOWER720_DSS_CPI, ValidationReport
from repro.simulator.hierarchy import HierarchyStats
from repro.simulator.machine import MachineResult


class TestTaxonomy:
    def test_grid_has_eight_unique_cells(self):
        cells = grid()
        assert len(cells) == 8
        assert len({c.label for c in cells}) == 8

    def test_table1_axes(self):
        rows = table1()
        assert rows[0].camp is Camp.FAT
        assert rows[1].camp is Camp.LEAN
        assert rows[0].core_size_ratio == 3 * rows[1].core_size_ratio

    def test_regime_metrics(self):
        assert Regime.UNSATURATED.metric == "response_time"
        assert Regime.SATURATED.metric == "throughput"


def fake_result(**kw):
    hs = HierarchyStats()
    hs.data_accesses = 100
    hs.data_level_counts = [50, 5, 30, 10, 5]
    hs.instr_blocks = 10
    defaults = dict(
        config_name="cfg", workload_name="wl",
        breakdown=Breakdown(computation=400, i_l2=50, d_l2=200, d_mem=100,
                            other=50),
        per_core=[Breakdown(computation=400, i_l2=50, d_l2=200, d_mem=100,
                            other=50)],
        retired=400, elapsed=1000.0, ipc=0.4, response_cycles=None,
        hier_stats=hs, l2_miss_rate=0.25,
    )
    defaults.update(kw)
    return MachineResult(**defaults)


class TestCounters:
    def test_cpi_stack_shares(self):
        stack = cpi_stack(fake_result(
            breakdown=Breakdown(computation=200, d_l2=100, i_l2=60,
                                other=40),
            retired=100))
        assert stack["computation"] == 2.0
        assert stack["d_stalls"] == 1.0
        assert stack["i_stalls"] == 0.6
        assert stack["other"] == 0.4


class TestValidationReport:
    def test_shares_and_within(self):
        report = ValidationReport(
            ours={"computation": 0.4, "i_stalls": 0.2, "d_stalls": 0.5,
                  "other": 0.1},
            reference=OPENPOWER720_DSS_CPI,
            total_delta=0.0,
            share_deltas={"computation": 0.05, "i_stalls": -0.02,
                          "d_stalls": 0.1, "other": -0.13},
            comp_lower_than_hw=True,
            dstall_higher_than_hw=True,
        )
        assert report.within(0.15)
        assert not report.within(0.05)
        shares = report.shares(report.ours)
        assert sum(shares.values()) == pytest.approx(1.0)


class TestHistoric:
    def test_trends_sorted_and_plausible(self):
        sizes = historic.cache_size_trend()
        assert sizes == sorted(sizes)
        assert sizes[0][1] < 64          # late-80s caches in KB
        assert sizes[-1][1] >= 16 * 1024  # mid-2000s megacaches

    def test_latency_trend_rises(self):
        lat = historic.latency_trend()
        early = [v for y, v in lat if y < 2000]
        late = [v for y, v in lat if y >= 2003]
        assert max(early) < max(late)

    def test_growth_metrics(self):
        assert historic.growth_factor_per_decade() > 10
        assert historic.latency_growth_over_decade() > 2


class TestReporting:
    def test_format_table_aligns(self):
        out = reporting.format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_series_scales_bars(self):
        out = reporting.format_series("s", [(1.0, 1.0), (2.0, 2.0)])
        lines = out.splitlines()
        assert lines[2].count("#") == 2 * lines[1].count("#")

    def test_format_series_empty(self):
        assert "no points" in reporting.format_series("s", [])

    def test_breakdown_bar_percentages(self):
        out = reporting.format_breakdown_bar(
            "x", {"computation": 1.0, "d_stalls": 3.0})
        assert "computation=25.0%" in out
        assert "d_stalls=75.0%" in out

    def test_paper_vs_measured_headers(self):
        out = claims.paper_vs_measured(
            "fig1", claims.GROUPS["fig1"].measure(None))
        assert "claim" in out and "paper" in out and "measured" in out
        assert "verdict" in out
