"""Warm-memo reuse across an L2 sweep, at the ``Machine`` level.

Fig. 6 runs one workload at several L2 sizes in a row.  The post-warm
state does not depend on the L2, so the second and later sizes restore
the memoized state (``machine._WARM_MEMO``) instead of warming again.
The digest suite clears the memo around every run, so it never takes
that hit path; this suite does.  Each cell runs three L2 sizes in
order, each on a fresh ``Machine`` sharing one memo, and every result
must equal the same size run from cold memos.
"""

from __future__ import annotations

import pytest

from repro.core.parallel import RunSpec, execute
from repro.simulator import machine as machine_mod
from repro.simulator.configs import fc_cmp, lc_cmp

SCALE = 0.01
CYCLES = 20_000
CAMPS = {"fc": fc_cmp, "lc": lc_cmp}
L2_SIZES_MB = (1.0, 4.0, 16.0)


def _reset_warm_memos() -> None:
    machine_mod._WARM_MEMO.clear()


def _run(kind: str, camp: str, l2_mb: float) -> dict:
    config = CAMPS[camp](n_cores=4, l2_nominal_mb=l2_mb, scale=SCALE)
    return execute(RunSpec(config, kind), SCALE, CYCLES).to_dict()


@pytest.mark.parametrize("camp", sorted(CAMPS))
@pytest.mark.parametrize("kind", ["dss", "oltp"])
def test_sweep_reuses_warm_memo_bit_exact(kind, camp):
    cold = {}
    for l2_mb in L2_SIZES_MB:
        _reset_warm_memos()
        cold[l2_mb] = _run(kind, camp, l2_mb)

    _reset_warm_memos()
    try:
        first = None
        for l2_mb in L2_SIZES_MB:
            swept = _run(kind, camp, l2_mb)
            assert swept == cold[l2_mb], (
                f"{kind}/{camp} at {l2_mb:g} MB diverged after warm-memo "
                "reuse")
            # One memo entry serves the whole sweep: a miss at a later
            # size would store a fresh entry object under the same key.
            assert len(machine_mod._WARM_MEMO) == 1
            entry = next(iter(machine_mod._WARM_MEMO.values()))
            if first is None:
                first = entry
            assert entry is first
    finally:
        _reset_warm_memos()
    # The sweep must actually move the L2: distinct sizes, distinct
    # results, or the comparison above proves nothing about reuse.
    assert cold[L2_SIZES_MB[0]] != cold[L2_SIZES_MB[-1]]
