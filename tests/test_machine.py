"""Unit tests for the Machine warm/measure loop."""

import dataclasses
import pickle

import pytest

from repro.simulator.configs import fc_cmp, fc_smp, lc_cmp
from repro.simulator.machine import Machine
from repro.simulator.trace import TraceBuilder, Workload


def make_trace(name, n_events=200, footprint_lines=512, seed=1,
               write_every=5, base=0x4000_0000):
    import random
    rng = random.Random(seed)
    tb = TraceBuilder(name, ilp=2.0, branch_mpki=2.0, ilp_inorder=1.2)
    rid = tb.register_code("mod", 0x10_0000, 32)
    for i in range(n_events):
        addr = base + rng.randrange(footprint_lines) * 64
        tb.event(30, addr, 1 if write_every and i % write_every == 0 else 0,
                 rid)
    return tb.build()


def make_workload(n_clients=4, **kw):
    return Workload(
        "synthetic",
        [make_trace(f"c{i}", seed=i, **kw) for i in range(n_clients)],
        kind="dss",
    )


class TestModes:
    def test_throughput_mode_metrics(self):
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        r = m.run(make_workload(2), measure_cycles=20_000)
        assert r.elapsed == 20_000
        assert r.retired > 0
        assert r.ipc == pytest.approx(r.retired / 20_000)
        assert r.response_cycles is None

    def test_response_mode_metrics(self):
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        r = m.run(Workload("w", [make_trace("solo")]), mode="response")
        assert r.response_cycles is not None and r.response_cycles > 0
        assert r.elapsed == r.response_cycles

    def test_parallel_response_completes_all_clients(self):
        """Response mode with several clients (intra-query parallelism,
        Section 6.1): finishes when the slowest partition does."""
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        r = m.run(make_workload(2), mode="response")
        assert r.response_cycles > 0
        solo = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0)).run(
            Workload("w", [make_trace("solo")]), mode="response")
        # Two equal partitions on two cores: not slower than one partition.
        assert r.response_cycles < 2 * solo.response_cycles

    def test_response_rejects_more_clients_than_contexts(self):
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        with pytest.raises(ValueError):
            m.run(make_workload(3), mode="response")

    def test_unknown_mode_rejected(self):
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        with pytest.raises(ValueError):
            m.run(make_workload(1), mode="banana")

    def test_warm_fraction_bounds_checked(self):
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        with pytest.raises(ValueError):
            m.run(make_workload(1), warm_fraction=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"measure_cycles": 0},
        {"measure_cycles": -5},
        {"measure_cycles": float("nan")},
        {"measure_cycles": float("inf")},
        {"warm_passes": -1},
        {"warm_passes": 1.5},
    ])
    def test_bad_window_and_warm_passes_rejected(self, kwargs):
        """The checks run before any simulation: even a bundle of empty
        traces, which measures nothing, is rejected."""
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        empty = Workload("empty", [make_trace("c0", n_events=0)], kind="dss")
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            m.run(empty, **kwargs)


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        results = []
        for _ in range(2):
            m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
            r = m.run(make_workload(4), measure_cycles=30_000)
            results.append((r.retired, r.ipc, r.breakdown.as_dict()))
        assert results[0] == results[1]

    def test_lean_machine_deterministic(self):
        results = []
        for _ in range(2):
            m = Machine(lc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
            r = m.run(make_workload(8), measure_cycles=30_000)
            results.append((r.retired, r.breakdown.as_dict()))
        assert results[0] == results[1]


class TestAssignment:
    def test_fewer_clients_than_cores_spread_out(self):
        m = Machine(fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1.0))
        r = m.run(make_workload(2), measure_cycles=10_000)
        # Two active cores, two idle.
        assert len(r.per_core) == 2

    def test_more_clients_than_contexts_all_served(self):
        m = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        r = m.run(make_workload(6, n_events=50), measure_cycles=60_000)
        progress = r.extras["context_progress"]
        assert len(progress) == 2  # two contexts carrying 3 clients each
        assert all(p > 0 for p in progress)

    def test_lean_machine_has_four_contexts_per_core(self):
        cfg = lc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0)
        assert cfg.n_hardware_contexts == 8
        m = Machine(cfg)
        r = m.run(make_workload(8, n_events=50), measure_cycles=40_000)
        assert len(r.extras["context_progress"]) == 8


class TestWarmEffect:
    def test_warming_reduces_measured_misses(self):
        """With full warm and a loop-sized footprint, measurement sees far
        fewer memory-level accesses than a cold run."""
        wl = make_workload(2, n_events=300, footprint_lines=128)
        cold = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0)).run(
            wl, measure_cycles=20_000, warm_passes=0)
        warm = Machine(fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0)).run(
            wl, measure_cycles=20_000, warm_passes=1, warm_fraction=0.99)
        cold_mem = cold.hier_stats.data_level_counts[3] / max(
            1, cold.hier_stats.data_accesses)
        warm_mem = warm.hier_stats.data_level_counts[3] / max(
            1, warm.hier_stats.data_accesses)
        assert warm_mem < cold_mem

    def test_breakdown_time_conservation(self):
        m = Machine(lc_cmp(n_cores=2, l2_nominal_mb=1, scale=1.0))
        r = m.run(make_workload(8, n_events=100), measure_cycles=25_000)
        for bd in r.per_core:
            assert bd.total <= 25_000 * 1.1  # within one block overshoot


class TestWarmPlan:
    #: (kind, scale) of the cells: the DSS and OLTP mixes on both camps.
    CELLS = [("dss", 0.05), ("oltp", 0.01)]

    @pytest.mark.parametrize("camp", [fc_cmp, lc_cmp])
    @pytest.mark.parametrize("kind,scale", CELLS,
                             ids=[kind for kind, _ in CELLS])
    def test_run_then_run_derives_warm_state_once(self, kind, scale, camp,
                                                  monkeypatch):
        """Two runs on fresh machines walk the warm prefixes once.

        The first run walks them and memoizes the captured state; the
        second restores it.
        """
        from repro.core.parallel import WARM_FRACTIONS
        from repro.simulator import machine as machine_mod
        from repro.simulator import replay
        from repro.workloads.driver import workload_for

        outcomes = []
        derive = replay.compute_warm_state

        def counting(*args, **kwargs):
            state = derive(*args, **kwargs)
            outcomes.append(state is not None)
            return state

        monkeypatch.setattr(replay, "compute_warm_state", counting)
        machine_mod._WARM_MEMO.clear()
        try:
            wl = workload_for(kind, "saturated", scale)
            config = camp(n_cores=4, scale=scale)
            results = [
                Machine(config).run(wl, measure_cycles=5_000,
                                    warm_fraction=WARM_FRACTIONS[kind])
                for _ in range(2)]
        finally:
            machine_mod._WARM_MEMO.clear()
        assert outcomes == [True]
        assert results[0].to_dict() == results[1].to_dict()
        assert results[0].retired > 0


class TestTraceState:
    """A trace holds only its physical columns, its event table and
    metadata: the cores derive per-event work where they use it."""

    #: Every slot a trace has: metadata, the two physical columns, the
    #: event table, and the lazily computed aggregate statistics.
    SLOTS = {"name", "ilp", "ilp_inorder", "branch_mpki", "footprints",
             "addrs", "kinds", "events", "_stats"}

    @staticmethod
    def _sized(value):
        """``value`` and every sized object nested in its containers."""
        if isinstance(value, (str, bytes)):
            return
        if hasattr(value, "__len__"):
            yield value
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            for item in value:
                yield from TestTraceState._sized(item)

    def test_runs_leave_no_per_event_state(self):
        wl = make_workload(4, n_events=333)
        for camp in (fc_cmp, lc_cmp):
            Machine(camp(n_cores=2, l2_nominal_mb=1, scale=1.0)).run(
                wl, measure_cycles=20_000)
        for tr in wl.traces:
            assert not hasattr(tr, "__dict__")
            assert set(type(tr).__slots__) == self.SLOTS
            for slot in self.SLOTS - {"addrs", "kinds"}:
                for value in self._sized(getattr(tr, slot)):
                    assert len(value) != len(tr), slot

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_pickle_round_trips_exactly_the_fields(self, protocol):
        tr = make_trace("c0")
        assert tr.total_instructions == 30 * len(tr)  # fills _stats
        clone = pickle.loads(pickle.dumps(tr, protocol=protocol))
        for slot in self.SLOTS:
            assert getattr(clone, slot) == getattr(tr, slot), slot
        assert not hasattr(clone, "__dict__")


class TestLeanSettle:
    def test_lean_trailing_interval_is_attributed(self):
        """Lean per-core breakdowns must sum to the window exactly.

        ``_run_throughput`` stops dispatching at the horizon, which leaves
        each lean core with an open interval [last event, horizon) that
        only ``LeanCore.settle`` attributes; without the camp-uniform
        settle call the per-core sums fall short of the window by that
        trailing slice.  (Fat cores account whole ROB blocks at
        completion and legitimately overshoot the horizon, so the
        exact-sum invariant is lean-only.)
        """
        from repro.core.parallel import WARM_FRACTIONS
        from repro.simulator import machine as machine_mod
        from repro.workloads.driver import workload_for

        machine_mod._WARM_MEMO.clear()
        try:
            workload = workload_for("oltp", "saturated", 0.01)
            machine = Machine(lc_cmp(n_cores=4, scale=0.01))
            result = machine.run(workload, measure_cycles=5_000,
                                 warm_fraction=WARM_FRACTIONS["oltp"])
        finally:
            machine_mod._WARM_MEMO.clear()

        assert result.per_core, "expected per-core breakdowns"
        for core_id, breakdown in enumerate(result.per_core):
            total = sum(dataclasses.asdict(breakdown).values())
            assert total == pytest.approx(result.elapsed, rel=0, abs=1e-6), (
                f"core {core_id} attributed {total} of a {result.elapsed} "
                f"cycle window"
            )


class TestSmpMachine:
    def test_smp_runs_and_reports_coherence(self):
        wl = Workload("w", [
            make_trace(f"c{i}", seed=0, footprint_lines=64, write_every=2)
            for i in range(4)
        ])
        m = Machine(fc_smp(n_nodes=4, private_l2_nominal_mb=1, scale=1.0))
        r = m.run(wl, measure_cycles=30_000)
        # All clients share one footprint and write it: coherence traffic.
        assert r.hier_stats.coherence_misses > 0
        assert r.breakdown.d_coh > 0

    def test_cmp_same_workload_no_coherence(self):
        wl = Workload("w", [
            make_trace(f"c{i}", seed=0, footprint_lines=64, write_every=2)
            for i in range(4)
        ])
        m = Machine(fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1.0))
        r = m.run(wl, measure_cycles=30_000)
        assert r.hier_stats.coherence_misses == 0
        assert r.breakdown.d_coh == 0
