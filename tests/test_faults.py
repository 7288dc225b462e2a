"""The deterministic fault injector and recovery under injected chaos.

Two contracts, both load-bearing for trusting any figure produced under
``REPRO_FAULTS``:

- Inertness: with the knob unset, every hook is a no-op that perturbs
  nothing — no RNG, no result drift.
- Recovery determinism: a sweep that survives injected worker crashes,
  hangs, transient exceptions, and corrupt cache entries returns results
  field-for-field identical to a fault-free serial run.
"""

import os
from dataclasses import fields

import pytest

from repro.core import faults
from repro.core.experiment import Experiment
from repro.core.faults import FaultPlan, InjectedFault
from repro.core.parallel import RunSpec, SweepError, run_specs
from repro.settings import Settings
from repro.simulator.configs import fc_cmp

SCALE = 0.01
CYCLES = 5_000


def _specs(n: int = 3, kind: str = "dss") -> list[RunSpec]:
    return [
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=mb, scale=SCALE), kind)
        for mb in (1.0, 2.0, 4.0, 8.0)[:n]
    ]


@pytest.fixture
def no_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _assert_identical(expected, got) -> None:
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        for f in fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), (
                f"field {f.name!r} diverged under faults"
            )


class TestPlanParsing:
    def test_indexed_directives(self):
        plan = FaultPlan.parse("crash@1;exec@0x3;hang@2:30;corrupt@4")
        assert [r.site for r in plan.rules] == [
            "crash", "exec", "hang", "corrupt"]
        assert plan.rules[1].count == 3
        assert plan.rules[2].arg == 30.0

    def test_seed_and_probabilistic(self):
        plan = FaultPlan.parse("exec~0.25; seed=7")
        assert plan.seed == 7
        assert plan.rules[0].prob == 0.25

    def test_blank_segments_ignored(self):
        assert FaultPlan.parse("; crash@0 ;;").rules[0].site == "crash"

    @pytest.mark.parametrize("text", [
        "explode@1", "crash", "crash@one", "exec~lots", "crash@1x", "hang@1:soon",
        # Out of range: never fires, or fails only when it fires.
        "exec@-1", "exec@0x0", "exec~1.5", "exec~nan", "hang@0:-1",
        "hang@0:nan", "hang@0:1e300",
        # The design service's former sites are unknown sites now.
        "stall@0", "slow@0", "spurious@0",
    ])
    def test_bad_directives_raise(self, text):
        site = text.partition("@")[0].partition("~")[0]
        with pytest.raises(ValueError, match="REPRO_FAULTS") as err:
            FaultPlan.parse(text)
        assert site in str(err.value)

    def test_indexed_rule_fires_on_bounded_attempts(self):
        plan = FaultPlan.parse("exec@2x2")
        assert plan.rule_for("exec", 2, attempt=0)
        assert plan.rule_for("exec", 2, attempt=1)
        assert plan.rule_for("exec", 2, attempt=2) is None
        assert plan.rule_for("exec", 1, attempt=0) is None
        assert plan.rule_for("crash", 2, attempt=0) is None

    def test_probability_draws_are_deterministic(self):
        a = FaultPlan.parse("exec~0.5;seed=1")
        b = FaultPlan.parse("exec~0.5;seed=1")
        pattern_a = [a.rule_for("exec", i) is not None for i in range(64)]
        pattern_b = [b.rule_for("exec", i) is not None for i in range(64)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_seed_changes_the_pattern(self):
        a = FaultPlan.parse("exec~0.5;seed=1")
        b = FaultPlan.parse("exec~0.5;seed=2")
        assert ([a.rule_for("exec", i) is not None for i in range(64)]
                != [b.rule_for("exec", i) is not None for i in range(64)])


class TestInertness:
    def test_no_plan_when_unset(self, no_faults):
        assert faults.active_plan() is None

    def test_hooks_are_noops_when_disabled(self, no_faults):
        faults.maybe_crash(0)      # would os._exit if it fired
        faults.maybe_hang(0)       # would sleep for an hour
        faults.maybe_raise(0)      # would raise InjectedFault
        payload = b"precious bytes"
        assert faults.corrupt_bytes(0, payload) is payload
        assert faults.corrupt_bytes(None, payload) is payload

    def test_empty_value_is_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert faults.active_plan() is None
        faults.maybe_raise(0)

    @pytest.mark.slow
    def test_disabled_injector_does_not_perturb_results(self, monkeypatch):
        specs = _specs(2)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        baseline = run_specs(specs, SCALE, CYCLES, jobs=1)
        monkeypatch.setenv("REPRO_FAULTS", "")
        _assert_identical(baseline, run_specs(specs, SCALE, CYCLES, jobs=1))


class TestHookFiring:
    def test_exec_hook_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "exec@3")
        with pytest.raises(InjectedFault):
            faults.maybe_raise(3)
        faults.maybe_raise(3, attempt=1)  # one-shot: retry passes
        faults.maybe_raise(2)             # other indices untouched

    def test_corrupt_hook_replaces_payload(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@1")
        garbage = faults.corrupt_bytes(1, b"payload")
        assert garbage != b"payload"
        import pickle
        with pytest.raises(Exception):
            pickle.loads(garbage)
        assert faults.corrupt_bytes(0, b"payload") == b"payload"

    def test_crash_hook_exits_the_process(self, monkeypatch):
        # Exercised in-process by stubbing os._exit: actually dying here
        # would take pytest with it (which is why the executor only fires
        # crash faults inside pool workers).
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        codes = []
        monkeypatch.setattr(os, "_exit", codes.append)
        faults.maybe_crash(0)
        assert codes == [faults.CRASH_EXIT_CODE]

    def test_hang_hook_sleeps(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:7.5")
        naps = []
        monkeypatch.setattr(faults.time, "sleep", naps.append)
        faults.maybe_hang(0)
        faults.maybe_hang(1)
        assert naps == [7.5]


@pytest.mark.slow
class TestRecoveryDeterminism:
    """Injected failures must change wall-clock time only, never results."""

    @pytest.fixture(scope="class")
    def baseline(self):
        env_faults = os.environ.pop("REPRO_FAULTS", None)
        try:
            return run_specs(_specs(), SCALE, CYCLES, jobs=1)
        finally:
            if env_faults is not None:
                os.environ["REPRO_FAULTS"] = env_faults

    def test_transient_exec_fault_is_retried_serially(self, monkeypatch,
                                                      baseline):
        monkeypatch.setenv("REPRO_FAULTS", "exec@0;exec@2")
        got = run_specs(_specs(), SCALE, CYCLES, jobs=1,
                        retries=2, backoff=0.0)
        _assert_identical(baseline, got)

    def test_worker_crash_is_isolated_and_rerun(self, monkeypatch, baseline):
        monkeypatch.setenv("REPRO_FAULTS", "crash@1")
        got = run_specs(_specs(), SCALE, CYCLES, jobs=3,
                        retries=2, backoff=0.0)
        _assert_identical(baseline, got)

    def test_hung_worker_is_timed_out_and_rerun(self, monkeypatch, baseline):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:60")
        got = run_specs(_specs(), SCALE, CYCLES, jobs=3,
                        retries=2, backoff=0.0, timeout=4.0)
        _assert_identical(baseline, got)

    def test_combined_chaos_matches_fault_free_serial(self, monkeypatch,
                                                      tmp_path, baseline):
        """The acceptance scenario: crashes + hangs + transient errors +
        corrupt cache entries in one sweep, results identical field for
        field to the fault-free serial run."""
        monkeypatch.setenv("REPRO_FAULTS",
                           "crash@1;hang@0:60;exec@2;corrupt@1")
        chaotic = Experiment(
            scale=SCALE, measure_cycles=CYCLES, cache_dir=str(tmp_path),
            settings=Settings(retries=3, backoff=0.0, timeout=4.0))
        got = chaotic.run_many(_specs(), jobs=3)
        _assert_identical(baseline, got)

        # The corrupt@1 entry is unreadable on disk; a fresh fault-free
        # experiment recovers it by re-simulating, bit-for-bit.
        monkeypatch.delenv("REPRO_FAULTS")
        clean = Experiment(scale=SCALE, measure_cycles=CYCLES,
                           cache_dir=str(tmp_path))
        again = clean.run_many(_specs(), jobs=1)
        _assert_identical(baseline, again)
        assert clean.cache.errors == 1
        assert clean.sim_runs == 1  # only the corrupted point re-simulated

    def test_exhausted_retries_surface_structured_failures(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "exec@1x99")
        with pytest.raises(SweepError) as err:
            run_specs(_specs(), SCALE, CYCLES, jobs=1, retries=1,
                      backoff=0.0)
        (failure,) = err.value.failures
        assert failure.index == 1
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert "InjectedFault" in failure.message
        # The rest of the grid still completed (fail_fast off).
        assert [r is not None for r in err.value.results] == [
            True, False, True]
