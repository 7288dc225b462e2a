"""Integration tests: workloads through machines via the experiment layer.

These run at a tiny scale so the whole file stays fast, and they check the
*relationships* the characterization depends on rather than point values.
"""

import pytest

from repro.core.experiment import Experiment, RunSpec
from repro.core.sweeps import (
    cache_size_sweep,
    client_count_sweep,
    core_count_sweep,
)
from repro.simulator.configs import fc_cmp, fc_smp, lc_cmp
from repro.workloads.driver import workload_for

SCALE = 0.05
WINDOW = 80_000


@pytest.fixture(scope="module")
def exp():
    return Experiment(scale=SCALE, measure_cycles=WINDOW)


class TestExperimentRunner:
    def test_results_memoized(self, exp):
        cfg = fc_cmp(l2_nominal_mb=4, scale=SCALE)
        a = exp.run(cfg, "oltp")
        b = exp.run(fc_cmp(l2_nominal_mb=4, scale=SCALE), "oltp")
        assert a is b  # identical config -> cached result object

    def test_distinct_configs_not_conflated(self, exp):
        a = exp.run(fc_cmp(l2_nominal_mb=4, scale=SCALE), "oltp")
        b = exp.run(fc_cmp(l2_nominal_mb=8, scale=SCALE), "oltp")
        assert a is not b

    def test_explicit_paper_clients_recall_the_default_run(self):
        exp = Experiment(scale=SCALE, measure_cycles=20_000,
                         use_cache=False)
        cfg = fc_cmp(l2_nominal_mb=4, scale=SCALE)
        default = exp.run(cfg, "dss")
        assert RunSpec(cfg, "dss", n_clients=16).key(SCALE, WINDOW) \
            == RunSpec(cfg, "dss").key(SCALE, WINDOW)
        assert RunSpec(cfg, "dss", n_clients=8).key(SCALE, WINDOW) \
            != RunSpec(cfg, "dss").key(SCALE, WINDOW)
        assert exp.run(cfg, "dss", n_clients=16) is default
        assert exp.sim_runs == 1

    def test_workload_dispatch_validates(self):
        with pytest.raises(ValueError):
            workload_for("olap", "saturated", SCALE)
        with pytest.raises(ValueError):
            workload_for("oltp", "sideways", SCALE)

    def test_unsaturated_runs_response_mode(self, exp):
        cfg = fc_cmp(l2_nominal_mb=4, scale=SCALE)
        r = exp.run(cfg, "dss", "unsaturated")
        assert r.response_cycles is not None


class TestCharacterizationRelations:
    def test_lean_wins_saturated_fat_wins_single_thread(self, exp):
        fc = fc_cmp(l2_nominal_mb=8, scale=SCALE)
        lc = lc_cmp(l2_nominal_mb=8, scale=SCALE)
        for kind in ("oltp", "dss"):
            assert exp.throughput_ratio(lc, fc, kind) > 1.0
            assert exp.response_ratio(lc, fc, kind) > 1.0

    def test_lean_saturated_hides_stalls_best(self, exp):
        """The LC x saturated cell has the highest computation share of
        the four camp x regime combinations (paper Section 4)."""
        fc = fc_cmp(l2_nominal_mb=8, scale=SCALE)
        lc = lc_cmp(l2_nominal_mb=8, scale=SCALE)
        comp = {}
        for cfg, camp in ((fc, "fc"), (lc, "lc")):
            for regime in ("saturated", "unsaturated"):
                r = exp.run(cfg, "oltp", regime)
                comp[(camp, regime)] = r.breakdown.fraction(
                    r.breakdown.computation)
        best = max(comp, key=comp.get)
        assert best == ("lc", "saturated")

    def test_bigger_cache_fewer_offchip_accesses(self, exp):
        small = exp.run(fc_cmp(l2_nominal_mb=1, scale=SCALE), "oltp")
        big = exp.run(fc_cmp(l2_nominal_mb=16, scale=SCALE), "oltp")
        small_mem = small.hier_stats.data_fraction(3)
        big_mem = big.hier_stats.data_fraction(3)
        assert big_mem < small_mem

    def test_const_latency_dominates_real(self, exp):
        real = exp.run(fc_cmp(l2_nominal_mb=26, scale=SCALE), "oltp")
        const = exp.run(
            fc_cmp(l2_nominal_mb=26, scale=SCALE, const_latency=4), "oltp")
        assert const.ipc > real.ipc

    def test_smp_pays_coherence_cmp_does_not(self, exp):
        smp = exp.run(fc_smp(n_nodes=4, private_l2_nominal_mb=4,
                             scale=SCALE), "oltp")
        cmp_ = exp.run(fc_cmp(n_cores=4, l2_nominal_mb=16, scale=SCALE),
                       "oltp")
        assert smp.hier_stats.coherence_misses > 0
        assert cmp_.hier_stats.coherence_misses == 0
        assert cmp_.cpi < smp.cpi


class TestSweeps:
    def test_cache_size_sweep_shape(self, exp):
        points = cache_size_sweep(exp, "oltp", sizes_mb=(1.0, 8.0))
        assert [p.x for p in points] == [1.0, 8.0]
        assert points[1].result.ipc > points[0].result.ipc

    def test_core_count_sweep_grows(self, exp):
        points = core_count_sweep(exp, "dss", core_counts=(2, 8))
        assert points[1].result.ipc > points[0].result.ipc

    def test_client_sweep_saturates(self, exp):
        points = client_count_sweep(exp, "dss", client_counts=(1, 8),
                                    l2_nominal_mb=8)
        assert points[1].result.ipc > points[0].result.ipc

    def test_sweep_points_reuse_memoized_traces(self, exp):
        # Two sweeps over the same sizes reuse cached MachineResults.
        a = cache_size_sweep(exp, "oltp", sizes_mb=(1.0,))
        b = cache_size_sweep(exp, "oltp", sizes_mb=(1.0,))
        assert a[0].result is b[0].result


class TestDeterminismEndToEnd:
    def test_full_pipeline_reproducible(self):
        vals = []
        for _ in range(2):
            exp = Experiment(scale=SCALE, measure_cycles=WINDOW)
            r = exp.run(fc_cmp(l2_nominal_mb=4, scale=SCALE), "dss")
            vals.append((r.retired, r.ipc, tuple(
                sorted(r.breakdown.as_dict().items()))))
        assert vals[0] == vals[1]
