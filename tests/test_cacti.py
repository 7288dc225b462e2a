"""Unit tests for the CACTI-style latency/area model."""

import pytest

from repro.simulator import cacti


class TestLatency:
    def test_monotone_in_size(self):
        sizes = [0.25, 0.5, 1, 2, 4, 8, 16, 26, 64]
        lats = [cacti.l2_hit_latency(s) for s in sizes]
        assert lats == sorted(lats)

    def test_paper_anchors(self):
        # ~8 cycles at 1 MB, ~22 at 26 MB (Fig. 1(b) era anchors).
        assert 6 <= cacti.l2_hit_latency(1.0) <= 9
        assert 20 <= cacti.l2_hit_latency(26.0) <= 24
        # Power5-class multi-MB caches around 14 cycles.
        assert 12 <= cacti.l2_hit_latency(8.0) <= 16

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cacti.l2_hit_latency(0)
        with pytest.raises(ValueError):
            cacti.l2_hit_latency(-1)

    def test_sublinear_growth(self):
        """Doubling capacity grows latency by less than 2x (sqrt law)."""
        for s in (1.0, 4.0, 13.0):
            assert cacti.l2_hit_latency(2 * s) < 2 * cacti.l2_hit_latency(s)


class TestEstimate:
    def test_fields_consistent(self):
        e = cacti.estimate(16.0)
        assert e.latency_cycles == cacti.l2_hit_latency(16.0)
        assert e.area_mm2 > cacti.estimate(4.0).area_mm2
        assert e.dynamic_nj > cacti.estimate(4.0).dynamic_nj
