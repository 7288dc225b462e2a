"""Telemetry transparency: observing a sweep must never change it.

The observability layer (DESIGN.md §7) is read-only by contract: the
profiling probe consumes simulation outputs, the telemetry recorder
consumes scheduler lifecycle, and neither feeds anything back.  These
tests hold results **field-for-field identical** with telemetry on vs.
off — serially, across a process pool, under injected-fault chaos, and
across a resume from the result cache — and pin ``CODE_VERSION``: instrumentation
must not pretend to be a simulator change.
"""

import os
from dataclasses import fields

import pytest

from repro.core import parallel
from repro.core.experiment import Experiment
from repro.core.parallel import RunSpec, execute, run_specs
from repro.simulator.configs import fc_cmp
from repro.simulator.profiling import NULL_PROBE, RunProbe

SCALE = 0.01
CYCLES = 5_000
SIZES_MB = (1.0, 2.0, 4.0)


def _specs(kind: str = "dss") -> list[RunSpec]:
    return [
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=size, scale=SCALE), kind)
        for size in SIZES_MB
    ]


@pytest.fixture
def clean_env(monkeypatch):
    for var in ("REPRO_TELEMETRY", "REPRO_FAULTS", "REPRO_RETRIES",
                "REPRO_TIMEOUT", "REPRO_BACKOFF", "REPRO_FAIL_FAST",
                "REPRO_JOBS", "REPRO_CACHE_DIR"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def _assert_identical(bare, observed) -> None:
    assert len(bare) == len(observed)
    for size, a, b in zip(SIZES_MB, bare, observed):
        for f in fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), (
                f"telemetry changed field {f.name!r} at {size} MB")
        assert a == b


def test_code_version_unchanged_by_observability():
    # The cache salt invalidates every stored result when bumped; the
    # observability layer cannot alter results, so it must not bump it.
    assert parallel.CODE_VERSION == "repro-sim-v1"


def test_execute_identical_with_and_without_probe(clean_env):
    spec = _specs()[0]
    bare = execute(spec, SCALE, CYCLES)
    probe = RunProbe()
    observed = execute(spec, SCALE, CYCLES, probe=probe)
    assert bare == observed
    # The probe really watched the run it did not perturb.
    assert probe.counters["data_accesses"] == (
        observed.hier_stats.data_accesses)
    assert not NULL_PROBE.enabled


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_identical_with_telemetry_on_and_off(clean_env, tmp_path, jobs):
    specs = _specs()
    bare = run_specs(specs, SCALE, CYCLES, jobs=jobs)
    observed = run_specs(specs, SCALE, CYCLES, jobs=jobs,
                         telemetry=str(tmp_path / "t.jsonl"))
    _assert_identical(bare, observed)


@pytest.mark.slow
def test_identical_under_fault_chaos(clean_env, tmp_path):
    """Retried attempts re-run the same deterministic path whether or not
    anyone is watching: faulted+observed == faulted+unobserved == clean."""
    specs = _specs()
    clean = run_specs(specs, SCALE, CYCLES, jobs=1)
    clean_env.setenv("REPRO_FAULTS", "exec@0;exec@2")  # first attempts fail
    faulted = run_specs(specs, SCALE, CYCLES, jobs=1, retries=2, backoff=0.0)
    observed = run_specs(specs, SCALE, CYCLES, jobs=1, retries=2,
                         backoff=0.0, telemetry=str(tmp_path / "t.jsonl"))
    _assert_identical(clean, faulted)
    _assert_identical(clean, observed)
    # The log shows the retries happened — observation was not a bypass.
    from repro.core.telemetry import load_events

    retried = {e["index"] for e in load_events(str(tmp_path / "t.jsonl"))
               if e["ev"] == "spec_retry"}
    assert retried == {0, 2}


@pytest.mark.slow
def test_identical_across_cache_resume(clean_env, tmp_path):
    """A resumed sweep recalls the finished specs from the result cache;
    telemetry labels them (``cache_hit``, source="sweep") without
    changing a single field."""
    from repro.core.experiment import Experiment
    from repro.core.telemetry import load_events

    specs = _specs()
    baseline = run_specs(specs, SCALE, CYCLES, jobs=1)
    cache_dir = str(tmp_path / "cache")
    Experiment(scale=SCALE, measure_cycles=CYCLES,
               cache_dir=cache_dir).run_many(specs[:2], jobs=1)

    log = str(tmp_path / "t.jsonl")
    resumed = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         cache_dir=cache_dir, telemetry=log)
    _assert_identical(baseline, resumed.run_many(specs, jobs=1))

    events = load_events(log)
    cache = [(e["ev"], e["source"]) for e in events
             if e["ev"].startswith("cache_")]
    assert cache == [("cache_hit", "sweep")] * 2 + [
        ("cache_miss", "sweep"), ("cache_store", "sweep")]
    # Only the unfinished spec reached the sweep, as its batch's index 0.
    finished = [(e["index"], e["source"]) for e in events
                if e["ev"] == "spec_finished"]
    assert finished == [(0, "simulated")]
    assert resumed.sim_runs == 1


def test_env_telemetry_is_transparent_too(clean_env, tmp_path):
    """The ``REPRO_TELEMETRY`` knob (the CLI ``--telemetry`` path), read
    by the experiment's settings, is the same recorder; results stay
    identical and the log lands under DIR."""
    specs = _specs()[:2]
    bare = run_specs(specs, SCALE, CYCLES, jobs=1)
    clean_env.setenv("REPRO_TELEMETRY", str(tmp_path))
    exp = Experiment(scale=SCALE, measure_cycles=CYCLES, use_cache=False)
    observed = exp.run_many(specs, jobs=1)
    assert bare == observed
    assert os.path.exists(tmp_path / "telemetry.jsonl")
