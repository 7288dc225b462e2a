"""The telemetry subsystem: schema, overhead, aggregation, atomicity.

Four invariants keep the observability layer trustworthy:

- every emitted event validates against the documented ``EVENT_SCHEMA``
  (the log is a contract, not a junk drawer);
- the enabled path adds only bounded overhead to a sweep (no accidental
  per-access work in hot loops);
- aggregation math (nearest-rank percentiles, worker utilization, cache
  provenance) matches hand-computed fixtures, and one ``summarize`` /
  ``format_summary`` pair covers every event kind (sweep, service, and
  the per-point studies);
- concurrent writers — the sweep scheduler plus pool workers — never
  interleave corrupt lines (one atomic append per event).

Per-source cache attribution is locked down here too (a failed sweep's
completed specs are stored, and attributed to the sweep, before its
``SweepError`` is raised), and so is the clock rule: every recorded
duration comes from a monotonic clock, never from ``time.time``.
"""

import json
import os
import time
from concurrent import futures

import pytest

from repro.core import telemetry
from repro.core.experiment import Experiment
from repro.core.parallel import RunSpec, SweepError, run_specs
from repro.core.telemetry import (
    EVENT_SCHEMA,
    NULL_RECORDER,
    POINT_EVENTS,
    TelemetryRecorder,
    as_recorder,
    load_events,
    percentile,
    summarize,
    telemetry_path,
    validate_event,
)
from repro.settings import Settings
from repro.simulator.configs import fc_cmp
from repro.workloads import driver

SCALE = 0.01
CYCLES = 5_000


def _specs(n: int = 3) -> list[RunSpec]:
    return [
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=mb, scale=SCALE), "dss")
        for mb in (1.0, 2.0, 4.0, 8.0)[:n]
    ]


@pytest.fixture
def clean_env(monkeypatch):
    for var in ("REPRO_TELEMETRY", "REPRO_FAULTS", "REPRO_RETRIES",
                "REPRO_TIMEOUT", "REPRO_BACKOFF", "REPRO_FAIL_FAST",
                "REPRO_JOBS", "REPRO_CACHE_DIR"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def _event(ev: str, **fields) -> dict:
    return {"ev": ev, "t": 1.0, "pid": 42, **fields}


# ---------------------------------------------------------------------- #
# Recorder plumbing                                                       #
# ---------------------------------------------------------------------- #

class TestRecorderPlumbing:
    def test_disabled_by_default(self, clean_env):
        assert as_recorder(None) is NULL_RECORDER
        assert not NULL_RECORDER.enabled
        NULL_RECORDER.emit("sweep_start", anything="goes")  # inert no-op

    def test_env_enables(self, clean_env, tmp_path):
        clean_env.setenv("REPRO_TELEMETRY", str(tmp_path))
        rec = Experiment(use_cache=False).telemetry
        assert rec.enabled
        assert rec.path == str(tmp_path / "telemetry.jsonl")

    def test_path_resolution(self, tmp_path):
        assert telemetry_path(str(tmp_path)) == str(
            tmp_path / "telemetry.jsonl")
        explicit = str(tmp_path / "custom.jsonl")
        assert telemetry_path(explicit) == explicit

    def test_emit_writes_one_valid_line_per_event(self, tmp_path):
        rec = TelemetryRecorder(str(tmp_path / "t.jsonl"))
        rec.emit("cache_hit", source="run")
        rec.emit("cache_miss", source="sweep")
        rec.close()
        events = load_events(rec.path)
        assert [e["ev"] for e in events] == ["cache_hit", "cache_miss"]
        for event in events:
            validate_event(event)

    def test_unwritable_log_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rec = TelemetryRecorder(str(blocker / "t.jsonl"))
        rec.emit("cache_hit", source="run")
        assert rec.dropped == 1

    def test_load_tolerates_truncated_tail_and_garbage(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(_event("cache_hit", source="run"))
        with open(path, "w") as fh:
            fh.write(good + "\n")
            fh.write("not json at all\n")
            fh.write(good + "\n")
            fh.write('{"ev": "cache_mi')  # killed mid-append
        events = load_events(str(path))
        assert len(events) == 2
        assert load_events(str(tmp_path / "missing.jsonl")) == []


# ---------------------------------------------------------------------- #
# Schema                                                                  #
# ---------------------------------------------------------------------- #

class TestEventSchema:
    def test_every_sweep_event_validates(self, clean_env, tmp_path):
        log = str(tmp_path / "t.jsonl")
        run_specs(_specs(3), SCALE, CYCLES, jobs=2, telemetry=log)
        events = load_events(log)
        assert events, "an enabled sweep must emit events"
        for event in events:
            validate_event(event)
        kinds = {e["ev"] for e in events}
        assert {"sweep_start", "spec_queued", "spec_started",
                "spec_exec", "spec_finished", "sweep_end"} <= kinds

    def test_per_spec_lifecycle_is_complete(self, clean_env, tmp_path):
        log = str(tmp_path / "t.jsonl")
        run_specs(_specs(3), SCALE, CYCLES, jobs=1, telemetry=log)
        events = load_events(log)
        for index in range(3):
            mine = [e for e in events if e.get("index") == index]
            assert [e["ev"] for e in mine] == [
                "spec_queued", "spec_started", "spec_exec", "spec_finished"]
        finished = [e for e in events if e["ev"] == "spec_finished"]
        assert all(e["source"] == "simulated" for e in finished)
        assert all(e["wall_s"] >= 0 for e in finished)

    def test_spec_exec_carries_profile_snapshot(self, clean_env, tmp_path):
        log = str(tmp_path / "t.jsonl")
        run_specs(_specs(1), SCALE, CYCLES, jobs=1, telemetry=log)
        execs = [e for e in load_events(log) if e["ev"] == "spec_exec"]
        assert len(execs) == 1
        profile = execs[0]["profile"]
        assert profile["phase_seconds"]["measure"] >= 0
        assert profile["phase_seconds"]["warm"] >= 0
        assert profile["counters"]["data_accesses"] > 0
        assert profile["gauges"]["retired"] > 0
        assert execs[0]["pid"] == os.getpid()  # jobs=1 runs in-process

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event(_event("spec_vanished"))

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="missing required field"):
            validate_event(_event("spec_queued", sweep="1-1"))  # no index

    def test_stray_field_rejected(self):
        with pytest.raises(ValueError, match="unexpected fields"):
            validate_event(_event("cache_hit", source="run", vibes="good"))

    def test_missing_envelope_rejected(self):
        event = _event("cache_hit", source="run")
        del event["pid"]
        with pytest.raises(ValueError, match="envelope"):
            validate_event(event)

    def test_schema_documents_all_emitted_types(self):
        # The schema table is the documentation; keep it covering the
        # full event vocabulary (additions must extend it).
        assert set(EVENT_SCHEMA) == {
            "sweep_start", "sweep_end", "spec_queued", "spec_started",
            "spec_exec", "spec_retry", "spec_finished", "spec_failed",
            "cache_hit", "cache_miss", "cache_store",
            "svc_request", "svc_answer", "svc_shed", "svc_coalesce",
            "svc_sim_fail", "contention_point",
            "island_point"}


# ---------------------------------------------------------------------- #
# Aggregation math                                                        #
# ---------------------------------------------------------------------- #

class TestAggregation:
    def test_percentile_nearest_rank(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 95) == 4.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([], 50) == 0.0
        # 20 values: p95 rank = ceil(0.95*20) = 19 -> the 19th smallest.
        values = [float(i) for i in range(1, 21)]
        assert percentile(values, 95) == 19.0

    def test_summary_matches_hand_computed_fixture(self):
        # One sweep, 2 workers, 10s wall.  Four specs: walls 1, 2, 3, 4
        # simulated; one failure after a retry.
        events = [
            _event("sweep_start", sweep="s", n_specs=5, jobs=2, scale=0.01,
                   default_cycles=5000),
        ]
        for i, wall in enumerate([1.0, 2.0, 3.0, 4.0]):
            events.append(_event("spec_finished", sweep="s", index=i,
                                 attempts=0, source="simulated",
                                 wall_s=wall))
        events += [
            _event("spec_retry", sweep="s", index=4, attempt=1,
                   kind="error", message="boom"),
            _event("spec_failed", sweep="s", index=4, kind="error",
                   attempts=2, message="boom"),
            _event("cache_hit", source="sweep"),
            _event("cache_store", source="sweep", index=0),
            _event("cache_store", source="run"),
            _event("sweep_end", sweep="s", completed=4, failed=1,
                   wall_s=10.0),
        ]
        for event in events:
            validate_event(event)
        summary = summarize(events)
        assert summary["sweeps"] == 1
        assert summary["specs"] == 5
        assert summary["simulated"] == 4
        assert summary["failed"] == 1
        assert summary["retries"] == 1
        assert summary["retry_kinds"] == {"error": 1}
        # nearest-rank over [1, 2, 3, 4]: p50 -> 2, p95 -> 4.
        assert summary["spec_wall_p50"] == 2.0
        assert summary["spec_wall_p95"] == 4.0
        # busy 10s over 2 workers x 10s wall = 50% utilization.
        assert summary["busy_s"] == 10.0
        assert summary["capacity_s"] == 20.0
        assert summary["worker_utilization"] == 0.5
        assert summary["cache"] == {"hits": 1, "misses": 0, "stores": 2}
        assert summary["cache_by_source"]["sweep"] == {
            "hits": 1, "misses": 0, "stores": 1}
        assert summary["cache_by_source"]["run"]["stores"] == 1
        # The report renders without error and names both call sites.
        report = telemetry.format_summary(summary)
        assert "sweep" in report and "run" in report

    def test_legacy_log_with_retired_events_still_summarizes(
            self, tmp_path, capsys):
        """Old logs carry lines the summary no longer has a place for:

        - logs written while sweeps could export a shared-memory bundle
          arena carry event kinds the schema no longer has, and profile
          counters of the retired measure-phase L1 filter
          (``l1_filter_hits``/``l1_filter_bypass``);
        - logs written while sweeps could resume from a checkpoint
          journal carry ``checkpoint_resume`` events and journal recalls
          (``spec_finished`` with source "checkpoint" and a 0 s wall).

        Reading and summarizing such a log — and ``repro stats`` on it —
        must give exactly what the same log gives without those lines,
        and the retired counters must be ignored."""
        from repro.cli import main

        def retired(line: str) -> bool:
            event = json.loads(line)
            return (event["ev"] not in EVENT_SCHEMA
                    or (event["ev"] == "spec_finished"
                        and event["source"] != "simulated"))

        # log -> (retired lines, simulated specs, batched steps)
        logs = {"telemetry_shm_legacy.jsonl": (4, 3, 270),
                "telemetry_checkpoint_legacy.jsonl": (3, 4, 351)}
        for name, (n_retired, n_simulated, batched) in logs.items():
            legacy = os.path.join(os.path.dirname(__file__), "data", name)
            with open(legacy, encoding="utf-8") as fh:
                lines = fh.readlines()
            kept = [ln for ln in lines if not retired(ln)]
            assert len(lines) - len(kept) == n_retired, name
            stripped = tmp_path / name
            stripped.write_text("".join(kept), encoding="utf-8")

            summary = summarize(load_events(legacy))
            assert summary == summarize(load_events(str(stripped)))
            assert summary["simulated"] == n_simulated
            assert summary["specs"] == n_simulated
            assert summary["batched_steps"] == batched

            assert main(["stats", legacy]) == 0
            legacy_out = capsys.readouterr().out
            assert main(["stats", str(stripped)]) == 0
            assert legacy_out == capsys.readouterr().out
            assert (f"event loop:         batched steps {batched}\n"
                    in legacy_out)
            assert "filter" not in legacy_out
            assert "checkpoint" not in legacy_out
            if name == "telemetry_shm_legacy.jsonl":
                # The log does carry the retired filter counters; only
                # the live event-loop counter is summed.
                assert '"l1_filter_hits":97' in "".join(kept)

    def test_summary_of_empty_log(self):
        summary = summarize([])
        assert summary["specs"] == 0
        assert summary["worker_utilization"] == 0.0
        assert summary["spec_wall_p50"] == 0.0
        assert summary["service"]["requests"] == 0
        assert summary["points"] == {kind: [] for kind in POINT_EVENTS}

    def test_killed_sweep_does_not_inflate_utilization(self):
        # Sweep "a" finished a 5 s spec and was killed before its
        # sweep_end; the rerun "b" ran one 5 s spec in a 5 s wall.
        events = [
            _event("sweep_start", sweep="a", n_specs=2, jobs=1, scale=0.01,
                   default_cycles=5000),
            _event("spec_finished", sweep="a", index=0, attempts=0,
                   source="simulated", wall_s=5.0),
            _event("sweep_start", sweep="b", n_specs=1, jobs=1, scale=0.01,
                   default_cycles=5000),
            _event("spec_finished", sweep="b", index=0, attempts=0,
                   source="simulated", wall_s=5.0),
            _event("sweep_end", sweep="b", completed=1, failed=0,
                   wall_s=5.0),
        ]
        summary = summarize(events)
        assert summary["busy_s"] == 5.0
        assert summary["capacity_s"] == 5.0
        assert summary["worker_utilization"] == 1.0
        # The killed sweep's spec still counts as simulated work.
        assert summary["simulated"] == 2


# ---------------------------------------------------------------------- #
# One summary for every event kind                                        #
# ---------------------------------------------------------------------- #

def _write_log(path, events) -> str:
    for event in events:
        validate_event(event)
    path.write_text("".join(json.dumps(e) + "\n" for e in events),
                    encoding="utf-8")
    return str(path)


class TestOneSummary:
    def test_stats_prints_the_service_block(self, tmp_path, capsys):
        from repro.cli import main

        events = [
            _event("svc_request", req=1, query="q1", deadline_s=1.0),
            _event("svc_answer", req=1, query="q1", tier="model",
                   wall_s=0.004),
            _event("svc_request", req=2, query="q1"),
            _event("svc_coalesce", req=2, query="q1", leader=1),
            _event("svc_answer", req=2, query="q1", tier="cache",
                   wall_s=0.001, coalesced=True),
            _event("svc_shed", req=3, pending=6, retry_after_s=0.5),
            _event("svc_sim_fail", seq=1, kind="error", message="boom"),
        ]
        log = _write_log(tmp_path / "svc.jsonl", events)
        service = summarize(load_events(log))["service"]
        assert service["requests"] == 2
        assert service["answers"] == 2
        assert service["coalesced"] == 1
        assert service["shed"] == 1
        assert service["answers_by_tier"] == {"cache": 1, "model": 1}
        # nearest-rank over [0.001, 0.004]: p50 -> 0.001, p95 -> 0.004.
        assert service["answer_wall_p50"] == 0.001
        assert service["answer_wall_p95"] == 0.004

        assert main(["stats", log]) == 0
        out = capsys.readouterr().out
        assert ("answer p50/p95/p99: 0.0010s / 0.0040s / 0.0040s\n"
                in out)
        assert "requests:           2 (shed 1)" in out
        assert "answers:            2 (cache 1, model 1; " in out
        assert "sim failures:       {'error': 1}" in out

    def test_sweep_only_log_prints_no_service_or_point_block(self):
        events = [_event("sweep_start", sweep="s", n_specs=0, jobs=1,
                         scale=0.01, default_cycles=5000),
                  _event("sweep_end", sweep="s", completed=0, failed=0,
                         wall_s=1.0)]
        report = telemetry.format_summary(summarize(events))
        assert report.splitlines()[-1].startswith("accesses:")
        assert "requests" not in report
        assert "_point" not in report

    def test_stats_tabulates_contention_in_mode_theta_order(
            self, tmp_path, capsys):
        from repro.cli import main

        def point(cc_mode, theta, **optional):
            return _event("contention_point", cc_mode=cc_mode, theta=theta,
                          abort_rate=0.5, lock_wait_share=0.25, **optional)

        events = [point("partitioned", 0.9), point("2pl", 0.9, ipc=1.5),
                  point("partitioned", 0.0), point("2pl", 0.0, ipc=2.0)]
        log = _write_log(tmp_path / "contention.jsonl", events)
        rows = summarize(load_events(log))["points"]["contention_point"]
        assert [(r["cc_mode"], r["theta"]) for r in rows] == [
            ("2pl", 0.0), ("2pl", 0.9),
            ("partitioned", 0.0), ("partitioned", 0.9)]
        # Required fields first, then the optional ones (absent: None).
        assert list(rows[0]) == [
            "cc_mode", "theta", "abort_rate", "lock_wait_share",
            "wasted_share", "commits", "aborts", "ipc"]
        assert rows[2]["ipc"] is None

        assert main(["stats", log]) == 0
        lines = capsys.readouterr().out.splitlines()
        title = lines.index("contention_point")
        assert lines[title + 1].split() == list(rows[0])
        table = [line.split() for line in lines[title + 3:]]
        assert [row[:2] for row in table] == [
            ["2pl", "0"], ["2pl", "0.9"],
            ["partitioned", "0"], ["partitioned", "0.9"]]
        assert [row[-1] for row in table] == ["2", "1.5", "-", "-"]


# ---------------------------------------------------------------------- #
# Overhead                                                                #
# ---------------------------------------------------------------------- #

@pytest.mark.slow
def test_enabled_overhead_is_bounded(clean_env, tmp_path):
    """Telemetry may cost a few events of I/O per spec, never hot-loop
    work: an instrumented sweep stays within a generous factor of the
    bare one (both in-process, workloads pre-built)."""
    from time import perf_counter

    specs = _specs(3)
    run_specs(specs, SCALE, CYCLES, jobs=1)  # warm workload/trace caches

    def timed(telemetry_arg):
        t0 = perf_counter()
        result = run_specs(specs, SCALE, CYCLES, jobs=1,
                           telemetry=telemetry_arg)
        return perf_counter() - t0, result

    bare_wall, bare = timed(None)
    telem_wall, telem = timed(str(tmp_path / "t.jsonl"))
    assert telem == bare
    # Generous bound: 2x + 0.5s absolute slack absorbs host noise while
    # still catching accidental per-access instrumentation (which would
    # be orders of magnitude, not percent).
    assert telem_wall <= bare_wall * 2.0 + 0.5, (
        f"telemetry overhead too high: {telem_wall:.3f}s vs "
        f"{bare_wall:.3f}s bare")


# ---------------------------------------------------------------------- #
# Concurrent writers                                                      #
# ---------------------------------------------------------------------- #

def _hammer(args):
    path, writer, n_events = args
    rec = TelemetryRecorder(path)
    payload = f"writer-{writer}-" + "x" * 512
    for i in range(n_events):
        rec.emit("cache_store", source=payload, index=i)
    rec.close()
    return writer


@pytest.mark.slow
def test_concurrent_writers_never_interleave(tmp_path):
    """N processes hammering one log: every line must parse and every
    event must arrive exactly once (O_APPEND + single-write atomicity)."""
    path = str(tmp_path / "t.jsonl")
    n_writers, n_events = 4, 200
    try:
        with futures.ProcessPoolExecutor(max_workers=n_writers) as pool:
            list(pool.map(_hammer,
                          [(path, w, n_events) for w in range(n_writers)]))
    except (OSError, ValueError) as exc:
        pytest.skip(f"no multiprocessing here: {exc}")
    with open(path) as fh:
        lines = fh.readlines()
    assert len(lines) == n_writers * n_events
    seen = set()
    for line in lines:
        event = json.loads(line)  # a torn line would fail to parse
        validate_event(event)
        seen.add((event["source"], event["index"]))
    assert len(seen) == n_writers * n_events


# ---------------------------------------------------------------------- #
# Cache provenance                                                       #
# ---------------------------------------------------------------------- #

class TestCacheProvenance:
    def test_run_and_sweep_sources_attributed(self, clean_env, tmp_path):
        log = str(tmp_path / "t.jsonl")
        spec = _specs(1)[0]
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         cache_dir=str(tmp_path / "cache"), telemetry=log)
        exp.run(spec.config, "dss")       # miss + store via the run path
        exp2 = Experiment(scale=SCALE, measure_cycles=CYCLES,
                          cache_dir=str(tmp_path / "cache"), telemetry=log)
        exp2.run_many([spec])             # disk hit via the sweep path
        summary = summarize(load_events(log))
        by_source = summary["cache_by_source"]
        assert by_source["run"]["misses"] == 1
        assert by_source["run"]["stores"] == 1
        assert by_source["sweep"]["hits"] == 1

    def test_salvage_stores_are_attributed(self, clean_env, tmp_path):
        """The completed specs of a sweep that ends in SweepError are
        kept: the sweep stores each one in the cache, attributed to the
        sweep, before the error is raised."""
        clean_env.setenv("REPRO_FAULTS", "exec@0x99")  # spec 0 never runs
        log = str(tmp_path / "t.jsonl")
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         cache_dir=str(tmp_path / "cache"), telemetry=log,
                         settings=Settings(retries=1, backoff=0.0))
        with pytest.raises(SweepError) as err:
            exp.run_many(_specs(3), jobs=1)
        assert len(err.value.failures) == 1
        events = load_events(log)
        for event in events:
            validate_event(event)
        stores = [e for e in events if e["ev"] == "cache_store"]
        assert [(e["source"], e["index"]) for e in stores] == [
            ("sweep", 1), ("sweep", 2)]
        kinds = [e["ev"] for e in events]
        assert max(i for i, ev in enumerate(kinds)
                   if ev == "cache_store") < kinds.index("sweep_end")
        summary = summarize(events)
        assert summary["cache_by_source"] == {
            "sweep": {"hits": 0, "misses": 3, "stores": 2}}
        assert summary["failed"] == 1
        assert summary["retries"] == 1
        # The lump-sum cache counters still agree on the totals.
        assert exp.cache_stats()["stores"] == 2

    def test_prefetch_surfaces_telemetry_summary(self, clean_env, tmp_path):
        log = str(tmp_path / "t.jsonl")
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         use_cache=False, telemetry=log)
        exp.prefetch(_specs(2), jobs=1)
        summary = exp.telemetry_summary()
        assert summary is not None
        assert summary["simulated"] == 2
        # The service and point sections ride along, empty here.
        assert summary["service"]["answers"] == 0
        assert summary["points"] == {kind: [] for kind in POINT_EVENTS}
        # Disabled experiments report no summary rather than an empty one.
        bare = Experiment(scale=SCALE, measure_cycles=CYCLES,
                          use_cache=False)
        assert bare.telemetry_summary() is None


# ---------------------------------------------------------------------- #
# Clocks                                                                  #
# ---------------------------------------------------------------------- #

@pytest.mark.slow
def test_monotonic_clocks_only(clean_env, tmp_path):
    """Poison the wall clock for a telemetered sweep run three ways:
    serial from cold workload caches, a two-worker pool into an empty
    result cache, and a warm rerun from that cache.  Every duration must
    come from time.monotonic/perf_counter, so nothing notices."""
    def _no_wall_clock():
        raise AssertionError("the sweep path read the wall clock")

    clean_env.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    clean_env.setattr(time, "time", _no_wall_clock)
    driver.clear_workload_caches()
    specs = _specs(3)
    cache_dir = str(tmp_path / "cache")
    runs = {}
    for mode, jobs, cache in (("serial", 1, None), ("cold", 2, cache_dir),
                              ("warm", 2, cache_dir)):
        log = telemetry_path(str(tmp_path / mode))
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         cache_dir=cache, use_cache=cache is not None,
                         telemetry=log)
        results = exp.run_many(specs, jobs=jobs)
        events = load_events(log)
        for event in events:
            validate_event(event)
        runs[mode] = (exp.sim_runs, results, summarize(events))
    assert runs["serial"][1] == runs["cold"][1] == runs["warm"][1]
    assert runs["serial"][0] == runs["cold"][0] == len(specs)
    # The warm rerun is served entirely by the cache, and telemetry
    # attributes every cold store and warm hit to the sweep path.
    assert runs["warm"][0] == 0
    assert runs["cold"][2]["cache_by_source"]["sweep"]["stores"] == len(specs)
    assert runs["warm"][2]["cache_by_source"]["sweep"]["hits"] == len(specs)
