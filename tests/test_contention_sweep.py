"""The contention sweep's attribution invariants at every point.

:func:`repro.core.sweeps.contention_sweep` folds the logical executor's
concurrency-control share into each point's breakdown; the attributed
``lock_wait`` share must then equal that share (capped at 95%) exactly,
and the partitioned camp, which never takes a conflicting lock, must
never abort.  The skew directions themselves (2PL aborts and lock-wait
rising with theta) are claims of the ``contention`` group.
"""

import pytest

from repro.core.experiment import Experiment
from repro.core.sweeps import contention_sweep


@pytest.fixture(scope="module")
def points():
    exp = Experiment(scale=0.02, measure_cycles=40_000, use_cache=False)
    return contention_sweep(exp, thetas=(0.0, 0.9), hot_warehouses=4)


@pytest.mark.slow
def test_lock_wait_share_is_attributed_exactly(points):
    assert {(p.cc_mode, p.theta) for p in points} == {
        (mode, theta) for mode in ("2pl", "partitioned")
        for theta in (0.0, 0.9)}
    for p in points:
        view = p.result.breakdown.contention_view()
        share = min(p.contention.lock_wait_share + p.contention.wasted_share,
                    0.95)
        assert abs(view["lock_wait"] - share) < 1e-9, (p.cc_mode, p.theta)


@pytest.mark.slow
def test_partitioned_mode_never_aborts(points):
    for p in points:
        if p.cc_mode == "partitioned":
            assert p.contention.aborts == 0, p.theta
