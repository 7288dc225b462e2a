"""Oracle for the replay kernels: kernels on == kernels off, bit for bit.

The replay kernels (DESIGN.md §14) — the closed-form warm state and the
closed-form final L2 sets — promise *bit-exact* results: every field of
:class:`MachineResult`, including per-core cycle breakdowns and hierarchy
counters, must be identical with the kernels on and off.  The kernels
run when numpy is importable, so "on" is ``replay._np`` patched to the
numpy module (the cases skip without numpy, rather than compare the
interpreted path with itself) and "off" is ``replay._np`` patched to
None: the path a numpy-less host runs.  Measurement always runs the
full interpreted access path, so the kernels-off run is the reference.
This suite is that promise's oracle:

* the full (kind × regime × camp) cell grid, each cell replaying at
  least 50k cache accesses (warm references + measured data accesses +
  measured instruction-block accesses), compared field-for-field;
* the SMP config, whose private MESI L2s feed invalidations back into
  the L1s, so the kernels never engage — results must still be
  identical in both modes;
* the camp-uniform trailing-interval regression: lean cores' per-core
  breakdowns must attribute the measurement window *exactly*, which
  only holds if ``_run_throughput`` settles the open interval between
  each core's last event and the horizon.

The kernels read ``replay._np`` per call (numpy itself is imported at
the first kernel call), so the toggle is a plain ``monkeypatch.setattr``
— no subprocesses.  The warm-state memo is cleared around every run so
each mode derives its own state from scratch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.parallel import WARM_FRACTIONS, RunSpec, execute
from repro.simulator import machine as machine_mod
from repro.simulator import replay
from repro.simulator.configs import fc_cmp, fc_smp, lc_cmp
from repro.simulator.machine import Machine
from repro.workloads.driver import workload_for

CYCLES = 5_000

#: Per-cell study scale, chosen so every cell replays >= 50k accesses.
#: Saturated cells clear the floor at the quick scale through the warm
#: phase alone (every queued client trace is warmed); the unsaturated
#: single-client traces are shorter — and the OLTP one saturates near
#: 28k references at *any* scale — so those cells run larger scales and
#: the floor counts measured instruction-block accesses too (real L1i/L2
#: traffic the replay performs reference-for-reference).
SCALES = {
    ("dss", "saturated"): 0.01,
    ("oltp", "saturated"): 0.01,
    ("dss", "unsaturated"): 0.5,
    ("oltp", "unsaturated"): 0.2,
}

CAMPS = {"fc": fc_cmp, "lc": lc_cmp}

ACCESS_FLOOR = 50_000


def _reset_warm_memos() -> None:
    """Cold warm-state memo, so each mode re-derives."""
    machine_mod._WARM_MEMO.clear()


def _set_kernels(monkeypatch, mode: str) -> None:
    """Kernels on (``"1"``, skipped without numpy) or off (``"0"``, the
    numpy-less path)."""
    numpy = pytest.importorskip("numpy") if mode == "1" else None
    monkeypatch.setattr(replay, "_np", numpy)


def _accesses(workload, kind: str, result) -> int:
    """Cache accesses the run replayed: warm refs + measured traffic.

    The warm walk performs one data access per warm reference; the
    measured window counts data accesses and instruction-block accesses
    separately in ``hier_stats`` (stats reset at the warm/measure
    boundary, so there is no double count).
    """
    warm = sum(
        int(len(tr) * WARM_FRACTIONS[kind]) % len(tr)
        for tr in workload.traces if len(tr)
    )
    hs = result.hier_stats
    return warm + hs.data_accesses + hs.instr_blocks


@pytest.mark.parametrize("camp", sorted(CAMPS))
@pytest.mark.parametrize("regime", ["saturated", "unsaturated"])
@pytest.mark.parametrize("kind", ["dss", "oltp"])
def test_kernels_bit_exact_per_cell(kind, regime, camp, monkeypatch):
    """Field-for-field MachineResult equality, kernels on vs off."""
    scale = SCALES[(kind, regime)]
    spec = RunSpec(CAMPS[camp](n_cores=4, scale=scale), kind,
                   regime=regime)
    results = {}
    for mode in ("1", "0"):
        _set_kernels(monkeypatch, mode)
        _reset_warm_memos()
        results[mode] = execute(spec, scale, CYCLES)
    _reset_warm_memos()

    on, off = results["1"].to_dict(), results["0"].to_dict()
    assert on == off, (
        f"kernels-on result diverged from the interpreted reference for "
        f"{kind}/{regime}/{camp}"
    )
    # The cell must be a real workout, not a toy: >= 50k replayed
    # accesses (same workload objects both modes — driver cache).
    workload = workload_for(kind, regime, scale)
    n = _accesses(workload, kind, results["0"])
    assert n >= ACCESS_FLOOR, (
        f"{kind}/{regime}/{camp} exercised only {n} accesses"
    )


def test_smp_kernels_on_off_identical(monkeypatch):
    """Coherent private L2s (SMP): kernels on and off agree, bit-exact.

    The MESI L2s invalidate L1 lines from *outside* the local access
    stream, so the SMP hierarchy never takes a kernel path; switching
    the kernels off must not change a single result field.
    """
    scale = 0.01
    workload = workload_for("oltp", "saturated", scale)
    results = {}
    for mode in ("1", "0"):
        _set_kernels(monkeypatch, mode)
        _reset_warm_memos()
        machine = Machine(fc_smp(n_nodes=4, scale=scale))
        result = machine.run(workload, measure_cycles=CYCLES,
                             warm_fraction=WARM_FRACTIONS["oltp"])
        results[mode] = result.to_dict()
    _reset_warm_memos()

    assert results["1"] == results["0"]
    # The comparison covered a real coherent run, not an empty one.
    assert results["1"]["hier_stats"]["data_accesses"] > 0


@pytest.mark.parametrize("kernels", ["1", "0"])
def test_lean_trailing_interval_is_attributed(kernels, monkeypatch):
    """Lean per-core breakdowns must sum to the window exactly.

    ``_run_throughput`` stops dispatching at the horizon, which leaves
    each lean core with an open interval [last event, horizon) that only
    ``LeanCore.settle`` attributes; without the camp-uniform settle call
    the per-core sums fall short of the window by that trailing slice.
    (Fat cores account whole ROB blocks at completion and legitimately
    overshoot the horizon, so the exact-sum invariant is lean-only.)
    Parametrized over the kernels on and off, so the invariant holds in
    both kernel modes.
    """
    _set_kernels(monkeypatch, kernels)
    _reset_warm_memos()
    workload = workload_for("oltp", "saturated", 0.01)
    machine = Machine(lc_cmp(n_cores=4, scale=0.01))
    result = machine.run(workload, measure_cycles=CYCLES,
                         warm_fraction=WARM_FRACTIONS["oltp"])
    _reset_warm_memos()

    assert result.per_core, "expected per-core breakdowns"
    for core_id, breakdown in enumerate(result.per_core):
        total = sum(dataclasses.asdict(breakdown).values())
        assert total == pytest.approx(result.elapsed, rel=0, abs=1e-6), (
            f"core {core_id} attributed {total} of a {result.elapsed} "
            f"cycle window"
        )
