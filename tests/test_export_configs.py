"""Tests for the canonical machine configs."""

from repro.settings import Settings
from repro.simulator import cacti
from repro.simulator.configs import (
    BASELINE_L2_MB,
    FIG6_L2_SIZES_MB,
    fc_cmp,
    fc_smp,
    lc_cmp,
)


class TestConfigs:
    def test_fig6_sizes_cover_paper_range(self):
        assert FIG6_L2_SIZES_MB[0] == 1.0
        assert FIG6_L2_SIZES_MB[-1] == 26.0
        assert BASELINE_L2_MB == 26.0

    def test_fc_cmp_shape(self):
        cfg = fc_cmp(n_cores=8, l2_nominal_mb=16, scale=0.5)
        assert cfg.core.camp == "fc"
        assert not cfg.smp
        assert cfg.hierarchy.n_cores == 8
        assert cfg.hierarchy.l2_mb == 8.0          # scaled capacity
        assert cfg.hierarchy.l2_nominal_mb == 16.0  # nominal label
        assert cfg.n_hardware_contexts == 8

    def test_lc_cmp_shape(self):
        cfg = lc_cmp(n_cores=4, l2_nominal_mb=26, scale=1.0)
        assert cfg.core.camp == "lc"
        assert cfg.core.inorder_issue
        assert cfg.n_hardware_contexts == 16
        # Lean cores default to smaller (Niagara-class) L1s.
        assert cfg.hierarchy.l1d_kb == 16

    def test_lc_l1_override(self):
        cfg = lc_cmp(l1d_kb=64)
        assert cfg.hierarchy.l1d_kb == 64

    def test_const_latency_in_name_and_params(self):
        cfg = fc_cmp(l2_nominal_mb=8, const_latency=4)
        assert "const 4cyc" in cfg.name
        assert cfg.hierarchy.resolved_l2_latency() == 4

    def test_real_latency_follows_nominal_size(self):
        cfg = fc_cmp(l2_nominal_mb=8, scale=0.25)
        assert (cfg.hierarchy.resolved_l2_latency()
                == cacti.l2_hit_latency(8))

    def test_smp_config(self):
        cfg = fc_smp(n_nodes=4, private_l2_nominal_mb=4, scale=0.5)
        assert cfg.smp
        assert cfg.hierarchy.l2_mb == 2.0

    def test_default_scale_env(self):
        assert Settings.from_env({"REPRO_SCALE": "0.75"}).scale == 0.75
        assert Settings.from_env({}).scale == 0.25
