"""The resilient sweep executor: validation, retries, resume.

``run_specs`` must never lose completed work: failures are charged to
individual specs (structured :class:`SpecFailure` records inside a
:class:`SweepError`), the rest of the grid completes, and every finished
spec is stored in the result cache at once, so a killed sweep rerun on
the same cache re-simulates only unfinished specs.
"""

import warnings

import pytest

from repro.core import experiment, parallel
from repro.core.experiment import Experiment
from repro.core.parallel import (
    RunSpec,
    SpecFailure,
    SweepError,
    run_specs,
)
from repro.core.telemetry import load_events
from repro.settings import Settings, SettingsError
from repro.simulator.configs import fc_cmp

SCALE = 0.01
CYCLES = 5_000


def _specs(n: int = 3) -> list[RunSpec]:
    return [
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=mb, scale=SCALE), "dss")
        for mb in (1.0, 2.0, 4.0, 8.0)[:n]
    ]


@pytest.fixture
def clean_env(monkeypatch):
    """Resilience knobs at their documented defaults, whatever the outer
    environment (the CI chaos job runs this suite with them set)."""
    for var in ("REPRO_FAULTS", "REPRO_RETRIES", "REPRO_TIMEOUT",
                "REPRO_BACKOFF", "REPRO_FAIL_FAST", "REPRO_JOBS",
                "REPRO_CACHE_DIR", "REPRO_TELEMETRY"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


class TestRunSpecValidation:
    def test_valid_coordinates_construct(self):
        spec = RunSpec(fc_cmp(scale=SCALE), "oltp", "unsaturated")
        assert spec.mode == "response"

    def test_bad_kind_raises_eagerly(self):
        with pytest.raises(ValueError, match="unknown workload kind 'olap'"):
            RunSpec(fc_cmp(scale=SCALE), "olap")

    def test_bad_regime_raises_eagerly(self):
        with pytest.raises(ValueError, match="unknown regime 'overloaded'"):
            RunSpec(fc_cmp(scale=SCALE), "dss", "overloaded")

    def test_error_names_the_valid_choices(self):
        with pytest.raises(ValueError, match="dss.*oltp"):
            RunSpec(fc_cmp(scale=SCALE), "tpcc")

    @pytest.mark.parametrize("kwargs,match", [
        ({"n_clients": 0}, "n_clients must be a positive int"),
        ({"n_clients": -2}, "n_clients must be a positive int"),
        ({"n_clients": 2.5}, "n_clients must be a positive int"),
        ({"n_clients": True}, "n_clients must be a positive int"),
        ({"regime": "unsaturated", "n_clients": 8}, "saturated regime only"),
        ({"measure_cycles": 0}, "measure_cycles"),
        ({"measure_cycles": -5}, "measure_cycles"),
        ({"measure_cycles": float("nan")}, "measure_cycles"),
        ({"measure_cycles": float("inf")}, "measure_cycles"),
    ])
    def test_bad_run_shape_raises_eagerly(self, kwargs, match):
        """A client count or window the run cannot honour fails at
        construction, not inside ``execute`` (or never)."""
        with pytest.raises(ValueError, match=match):
            RunSpec(fc_cmp(scale=SCALE), "dss", **kwargs)


class TestDefaultJobs:
    """``REPRO_JOBS`` reaches sweeps through the experiment's settings."""

    def test_valid_value(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "4")
        assert Experiment(use_cache=False).settings.jobs == 4

    def test_unset_and_blank_are_silently_one(self, clean_env):
        assert Experiment(use_cache=False).settings.jobs == 1
        clean_env.setenv("REPRO_JOBS", "  ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Experiment(use_cache=False).settings.jobs == 1

    @pytest.mark.parametrize("raw", ["zero", "-3", "0", "2.5"])
    def test_invalid_value_raises(self, clean_env, raw):
        clean_env.setenv("REPRO_JOBS", raw)
        with pytest.raises(SettingsError, match="REPRO_JOBS") as err:
            Experiment(use_cache=False)
        assert err.value.variable == "REPRO_JOBS"

    def test_setting_reaches_run_specs(self, clean_env):
        seen = []

        def fake_run_specs(specs, scale, default_cycles, **kwargs):
            seen.append(kwargs["jobs"])
            return [None] * len(specs)

        clean_env.setattr(experiment, "run_specs", fake_run_specs)
        clean_env.setenv("REPRO_JOBS", "3")
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         use_cache=False)
        exp.run_many(_specs(2))
        exp.run_many(_specs(3)[2:], jobs=1)
        assert seen == [3, 1]


@pytest.mark.slow
class TestResume:
    """Resuming a sweep means rerunning it on the same result cache: the
    sweep stores each result the moment its spec finishes, and
    :meth:`Experiment.run_many` looks every key up before it submits."""

    def _counting_execute(self, clean_env) -> list:
        simulated = []
        real_execute = parallel.execute

        def counting_execute(spec, scale, default_cycles):
            simulated.append(spec)
            return real_execute(spec, scale, default_cycles)

        clean_env.setattr(parallel, "execute", counting_execute)
        return simulated

    def _experiment(self, tmp_path, **kw) -> Experiment:
        return Experiment(scale=SCALE, measure_cycles=CYCLES,
                          cache_dir=str(tmp_path / "cache"), **kw)

    def test_interrupted_sweep_resumes_unfinished_specs_only(
            self, tmp_path, clean_env):
        """The acceptance scenario: a sweep dies mid-flight; the rerun
        recalls finished specs from the cache and simulates only the
        remainder."""
        baseline = run_specs(_specs(), SCALE, CYCLES, jobs=1)

        clean_env.setenv("REPRO_FAULTS", "exec@2x99")
        with pytest.raises(SweepError) as err:
            self._experiment(
                tmp_path, settings=Settings(retries=0, backoff=0.0),
            ).run_many(_specs(), jobs=1)
        assert [r is not None for r in err.value.results] == [
            True, True, False]

        clean_env.delenv("REPRO_FAULTS")
        simulated = self._counting_execute(clean_env)
        resumed = self._experiment(tmp_path)
        assert resumed.run_many(_specs(), jobs=1) == baseline
        assert len(simulated) == 1  # only the spec the fault killed
        assert resumed.sim_runs == 1

    def test_completed_sweep_resumes_with_zero_simulation(
            self, tmp_path, clean_env):
        first = self._experiment(tmp_path).run_many(_specs(2), jobs=1)
        clean_env.setattr(parallel, "execute", None)  # unreachable
        again = self._experiment(tmp_path)
        assert again.run_many(_specs(2), jobs=1) == first
        assert again.sim_runs == 0

    def test_cache_env_knob_resumes_the_sweep(self, tmp_path, clean_env):
        """``REPRO_CACHE_DIR`` (the CLI ``--cache-dir`` path) is all a
        rerun needs to resume."""
        clean_env.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        first = Experiment(scale=SCALE, measure_cycles=CYCLES)
        results = first.run_many(_specs(2), jobs=1)
        assert first.cache.stores == 2
        clean_env.setattr(parallel, "execute", None)  # unreachable
        again = Experiment(scale=SCALE, measure_cycles=CYCLES)
        assert again.run_many(_specs(2), jobs=1) == results
        assert again.sim_runs == 0

    def test_killed_sweep_keeps_its_finished_specs(self, tmp_path,
                                                   clean_env):
        """A sweep killed outright (no SweepError to catch) must still
        have stored every spec that finished before the kill."""
        real_execute = parallel.execute
        calls = []

        def dying_execute(spec, scale, default_cycles):
            calls.append(spec)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real_execute(spec, scale, default_cycles)

        clean_env.setattr(parallel, "execute", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            self._experiment(tmp_path).run_many(_specs(3), jobs=1)

        clean_env.setattr(parallel, "execute", real_execute)
        simulated = self._counting_execute(clean_env)
        resumed = self._experiment(tmp_path)
        resumed.run_many(_specs(3), jobs=1)
        assert resumed.sim_runs == 1
        assert len(simulated) == 1

    def test_pool_sweep_stores_each_spec_before_it_ends(self, tmp_path,
                                                        clean_env):
        """On the pool path too, every result reaches the cache while the
        sweep runs, not after it returns."""
        log = str(tmp_path / "t.jsonl")
        exp = self._experiment(tmp_path, telemetry=log)
        exp.run_many(_specs(3), jobs=2)
        events = [e["ev"] for e in load_events(log)]
        assert events.count("cache_store") == 3
        end = events.index("sweep_end")
        assert all(i < end for i, ev in enumerate(events)
                   if ev == "cache_store")
        again = self._experiment(tmp_path)
        again.run_many(_specs(3), jobs=1)
        assert again.sim_runs == 0


@pytest.mark.slow
class TestFailureHandling:
    def test_fail_fast_stops_at_first_exhausted_spec(self, clean_env):
        clean_env.setenv("REPRO_FAULTS", "exec@0x99;exec@1x99")
        attempted = []
        real_execute = parallel.execute

        def counting_execute(spec, scale, default_cycles):
            attempted.append(spec)
            return real_execute(spec, scale, default_cycles)

        clean_env.setattr(parallel, "execute", counting_execute)
        with pytest.raises(SweepError) as err:
            run_specs(_specs(), SCALE, CYCLES, jobs=1, retries=0,
                      backoff=0.0, fail_fast=True)
        assert [f.index for f in err.value.failures] == [0]
        # Spec 1 and 2 were never reached (the injected fault fires
        # before execute, so nothing was simulated at all).
        assert attempted == []

    def test_backoff_grows_exponentially(self, clean_env):
        clean_env.setenv("REPRO_FAULTS", "exec@0x3")
        naps = []
        clean_env.setattr(parallel.time, "sleep", naps.append)
        got = run_specs(_specs(2), SCALE, CYCLES, jobs=1, retries=3,
                        backoff=0.5)
        assert naps == [0.5, 1.0, 2.0]
        assert all(r is not None for r in got)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backoff_is_capped(self, clean_env, jobs):
        """A long retry budget keeps doubling only up to the cap: no
        sleep runs past it, and none overflows ``time.sleep`` (which
        raises OverflowError past about 2**33 seconds)."""
        clean_env.setenv("REPRO_FAULTS", "exec@0x99;exec@1x99")
        naps = []

        def sleep(seconds):
            if seconds > parallel.MAX_RETRY_DELAY:
                raise AssertionError(f"slept {seconds} s")
            naps.append(seconds)

        clean_env.setattr(parallel.time, "sleep", sleep)
        with pytest.raises(SweepError) as err:
            run_specs(_specs(2), SCALE, CYCLES, jobs=jobs, retries=40,
                      backoff=0.1)
        assert [f.attempts for f in err.value.failures] == [41, 41]
        assert len(naps) == 80
        assert max(naps) == parallel.MAX_RETRY_DELAY
        assert sorted(naps)[:2] == [0.1, 0.1]

    def test_retry_delay_never_overflows(self):
        assert parallel._retry_delay(0.1, 1) == 0.1
        assert parallel._retry_delay(0.1, 3) == 0.4
        assert parallel._retry_delay(0.0, 10_000) == 0.0
        for backoff in (1e-9, 0.1, parallel.MAX_RETRY_DELAY * 2):
            assert parallel._retry_delay(backoff, 10_000) == \
                parallel.MAX_RETRY_DELAY

    def test_failure_records_are_ordered_and_complete(self, clean_env):
        clean_env.setenv("REPRO_FAULTS", "exec@0x99;exec@2x99")
        with pytest.raises(SweepError) as err:
            run_specs(_specs(), SCALE, CYCLES, jobs=1, retries=1,
                      backoff=0.0)
        assert [f.index for f in err.value.failures] == [0, 2]
        for failure in err.value.failures:
            assert isinstance(failure, SpecFailure)
            assert failure.attempts == 2
            assert failure.spec.kind == "dss"
        # The healthy spec still completed.
        assert err.value.results[1] is not None
        assert "2 of 3 specs failed" in str(err.value)

    def test_run_many_salvages_completed_results(self, clean_env, tmp_path):
        """A failed sweep must not waste its completed simulations: they
        land in the memo and disk cache before SweepError propagates."""
        clean_env.setenv("REPRO_FAULTS", "exec@1x99")
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         cache_dir=str(tmp_path),
                         settings=Settings(retries=0, backoff=0.0))
        with pytest.raises(SweepError):
            exp.run_many(_specs(), jobs=1)
        assert exp.sim_runs == 2
        assert exp.cache.stores == 2

        clean_env.delenv("REPRO_FAULTS")
        retry = Experiment(scale=SCALE, measure_cycles=CYCLES,
                           cache_dir=str(tmp_path))
        results = retry.run_many(_specs(), jobs=1)
        assert retry.sim_runs == 1  # only the spec that failed
        assert all(r is not None for r in results)

    def test_timeout_without_hang_changes_nothing(self, clean_env):
        baseline = run_specs(_specs(2), SCALE, CYCLES, jobs=1)
        generous = run_specs(_specs(2), SCALE, CYCLES, jobs=2,
                             timeout=300.0, retries=2)
        assert generous == baseline
