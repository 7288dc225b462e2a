"""Self-tests of the benchmark (``pytest perf/``).

The smoke runs use a reduced scale and measurement window so the whole
file takes about a minute; the study itself always runs at scale 0.25.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import compare
import metrics
import run
import worker
from layers import PER_LAYER
from trace import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
BASELINES = sorted((HERE / "baseline").glob("set*.json"))
SMOKE = ["--scale", "0.02", "--cycles", "20000"]


def run_worker(tmp_path: Path, workload: str, *extra: str) -> dict:
    work = tmp_path / f"{workload}-{'-'.join(extra) or 'plain'}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--work", str(work), *SMOKE, *extra],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced reduced-scale iteration per workload."""
    tmp = tmp_path_factory.mktemp("smoke")
    return {w: run_worker(tmp, w) for w in metrics.WORKLOADS}


# ---------------------------------------------------------------------- #
# Spans                                                                    #
# ---------------------------------------------------------------------- #

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),       # overlaps a: a concurrent task
        Span(3, "a.child", 2.0, 3.0, 1),
        Span(4, "late", 9.0, 12.0, 0),   # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_tracer_nests_spans_and_restores_patches(tmp_path):
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def work(self, n):
            with tracer.span("inner"):
                return n * 2

    tracer.wrap(Box, "work", "outer",
                observe=lambda rec, args, kwargs, result:
                rec.attrs.update(result=result))
    assert Box().work(21) == 42
    tracer.unwrap_all()
    assert Box.work.__name__ == "work" and not hasattr(Box.work,
                                                       "__wrapped__")
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.attrs) == ("outer", None,
                                                       {"result": 42})
    assert inner.parent == outer.id
    assert outer.start < inner.start < inner.end < outer.end
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["outer", "inner"]
    assert rows[0]["self"] == pytest.approx(
        outer.duration - inner.duration)


def test_tracer_is_safe_across_threads():
    tracer = Tracer()
    per_thread = 200

    def work():
        for _ in range(per_thread):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 8 * per_thread * 2
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    names = {s.id: s.name for s in tracer.spans}
    for s in tracer.spans:
        # Each thread has its own open span: an inner span's parent is
        # always an outer one, and outer spans are roots.
        expected = "outer" if s.name == "inner" else None
        assert (names[s.parent] if s.parent is not None else None) \
            == expected


# ---------------------------------------------------------------------- #
# Clocks                                                                   #
# ---------------------------------------------------------------------- #

def _no_wall_clock(*args, **kwargs):
    raise AssertionError("the benchmark must use monotonic clocks only")


def test_only_monotonic_clocks(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(time, "time", _no_wall_clock)
    monkeypatch.setattr(time, "time_ns", _no_wall_clock)
    assert worker.main(["--workload", "dss-sweep", "--work",
                        str(tmp_path / "w"), "--trace", *SMOKE]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["wall_s"] > 0 and not doc["failures"]
    assert set(doc["layers"]) == set(PER_LAYER) - {"trace.overhead_pct"}

    # The single-run aggregation, fed canned iterations.
    canned = doc
    monkeypatch.setattr(run, "run_iteration",
                        lambda *a, **k: copy.deepcopy(canned))
    monkeypatch.setattr(run, "check_pins", lambda d, e: d["failures"])
    for trace in (False, True):
        result = run.single_run("dss-sweep", 1, 0, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1


# ---------------------------------------------------------------------- #
# Reduced-scale runs                                                       #
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke(smoke, workload):
    doc = smoke[workload]
    assert doc["failures"] == {}
    assert doc["attempted"] >= 1 and doc["digests"]
    assert doc["setup_s"] > 0 and doc["wall_s"] > 0
    assert doc["peak_rss_mb"] > 0
    if workload == "serve":
        assert doc["attempted"] == 200
        assert doc["metrics"]["answer_p95_ms"] > 0
    if workload == "explore-quick":
        assert doc["metrics"]["model_mae_pct"] > 0


def test_traced_run_reproduces_untraced_digests(smoke, tmp_path):
    spans = tmp_path / "spans.jsonl"
    traced = run_worker(tmp_path, "oltp-sweep", "--trace",
                        "--spans", str(spans))
    assert traced["digests"] == smoke["oltp-sweep"]["digests"]
    assert traced["failures"] == {}
    layers = traced["layers"]
    assert layers["parallel.execute_calls"] == 13
    assert layers["parallel.cache_hits"] == 13
    assert layers["simulator.measure_s"] > 0
    assert layers["workloads.build_accesses"] > 0
    assert spans.read_text().count("\n") >= 13


def test_setup_only_skips_the_body(tmp_path):
    doc = run_worker(tmp_path, "dss-sweep", "--setup-only")
    assert doc["setup_s"] > 0 and doc["wall_s"] is None
    assert doc["attempted"] == 0


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (HERE.parent / "BENCHMARK.json").exists():
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "dss-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------- #
# Results files and comparison                                             #
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_baseline_validates_against_the_schema(path):
    metrics.validate_results(json.loads(path.read_text()))


@pytest.mark.skipif(not BASELINES, reason="no baseline recorded")
def test_schema_rejects_a_broken_file():
    doc = json.loads(BASELINES[0].read_text())
    wl = next(iter(doc["workloads"].values()))
    del wl["per_layer"]["simulator.measure_s"]
    with pytest.raises(ValueError, match="simulator.measure_s"):
        metrics.validate_results(doc)
    doc = json.loads(BASELINES[0].read_text())
    next(iter(doc["workloads"].values()))["end_to_end"]["wall_s"][
        "unit"] = "ms"
    with pytest.raises(ValueError, match="wall_s"):
        metrics.validate_results(doc)


def _summary(*values):
    return metrics.summary(list(values))


@pytest.mark.parametrize("old, new, expect", [
    ((10, 10.1, 9.9, 10, 10), (13, 13.1, 12.9, 13, 13), "worse"),
    ((10, 10.1, 9.9, 10, 10), (10.5, 10.4, 10.6, 10.5, 10.5), "same"),
    ((10, 10.1, 9.9, 10, 10), (9, 9.1, 8.9, 9, 9), "better"),
    ((10, 14, 7, 10, 12), (11, 15, 8, 11, 13), "unresolved"),
    ((10, 14, 7, 10, 12), (3, 4, 2, 3, 5), "better"),
])
def test_compare_verdicts(old, new, expect):
    wall = metrics.METRICS["wall_s"]
    assert compare.verdict(wall, _summary(*old), _summary(*new)) == expect


def test_compare_any_increase_bound():
    mae = metrics.METRICS["model_mae_pct"]
    assert compare.verdict(mae, _summary(8.1), _summary(8.1001)) == "worse"
    assert compare.verdict(mae, _summary(8.1), _summary(8.1)) == "same"


@pytest.mark.skipif(not BASELINES, reason="no baseline recorded")
def test_compare_refuses_different_measurements():
    base = json.loads(BASELINES[0].read_text())
    lines, any_worse = compare.compare(base, base)
    assert not any_worse and len(lines) > 1
    for mutate in (lambda d: d.update(seed=d["seed"] + 1),
                   lambda d: d.update(scale=0.5),
                   lambda d: next(iter(d["workloads"].values()))[
                       "definition"].update(cycles=1)):
        other = copy.deepcopy(base)
        mutate(other)
        with pytest.raises(compare.Refused):
            compare.compare(base, other)


def test_benchmark_json_matches_the_metric_tables():
    path = HERE.parent / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to perf/")
    doc = json.loads(path.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.BENCHMARKED)
    assert doc["end_to_end"] == [
        {"name": x.name, "unit": x.unit, "better": x.better,
         "bound": x.bound}
        for x in metrics.END_TO_END if x.single_run]
    assert doc["per_layer"] == [
        {"name": name, "unit": PER_LAYER[name][0],
         "better": PER_LAYER[name][1]}
        for name in run.SINGLE_RUN_LAYERS]
    assert "simulator.measure_s" in run.SINGLE_RUN_LAYERS
    assert "serve.shed" not in run.SINGLE_RUN_LAYERS
