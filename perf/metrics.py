"""End-to-end metric definitions, summary statistics, and the schema of
the results file ``run.py --out`` writes."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from layers import PER_LAYER

#: Workloads in run order.
WORKLOADS = ("oltp-sweep", "dss-sweep", "explore-quick", "serve")

#: The workloads ``BENCHMARK.json`` lists.  An explore-quick iteration
#: takes about 30 s and a serve iteration about 37 s (15 s of it model
#: fit), so a single run could time only one of them, and one iteration
#: reads 20-28% apart from run to run on a shared host.  Both run in
#: study mode only.
BENCHMARKED = ("oltp-sweep", "dss-sweep")

#: Schema tag of the results file.
RESULTS_SCHEMA = "repro-perf-v1"


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``bound`` is the share of the old median by which the metric may get
    worse before a change counts as a regression; 0 means any worsening
    counts.  ``single_run`` marks the metrics the one-run interface
    (``run.py --workload``) reports: those every workload has and that
    are never 0.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple = WORKLOADS
    single_run: bool = True


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("failed_frac", "ratio", "lower", 0.0, single_run=False),
    Metric("answer_p95_ms", "ms", "lower", 0.25, ("serve",),
           single_run=False),
    Metric("model_mae_pct", "%", "lower", 0.0, ("explore-quick",),
           single_run=False),
)

METRICS = {m.name: m for m in END_TO_END}


def summary(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``'
    default method), sample count, and the samples themselves."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_results(doc) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid results file."""
    _require(isinstance(doc, dict), "results must be an object")
    _require(doc.get("schema") == RESULTS_SCHEMA,
             f"schema must be {RESULTS_SCHEMA!r}")
    _require(doc.get("commit") is None or isinstance(doc["commit"], str),
             "commit must be a string or null")
    for key, kind in (("host", dict), ("python", str), ("seed", int),
                      ("runs", int), ("workloads", dict)):
        _require(isinstance(doc.get(key), kind),
                 f"{key!r} missing or mistyped")
    _require(_number(doc.get("scale")), "'scale' must be a number")
    _require(doc["workloads"], "no workloads")
    for name, wl in doc["workloads"].items():
        where = f"workload {name!r}"
        _require(name in WORKLOADS, f"unknown {where}")
        _require(isinstance(wl, dict), f"{where} must be an object")
        _require(isinstance(wl.get("definition"), dict),
                 f"{where}: definition missing")
        for key in ("attempted", "failed"):
            _require(isinstance(wl.get(key), int) and wl[key] >= 0,
                     f"{where}: {key} must be a non-negative int")
        _require(wl["attempted"] >= 1, f"{where}: nothing attempted")
        _require(isinstance(wl.get("failures"), dict),
                 f"{where}: failures must be an object")
        e2e = wl.get("end_to_end")
        _require(isinstance(e2e, dict), f"{where}: end_to_end missing")
        for metric in END_TO_END:
            if name not in metric.workloads:
                continue
            row = e2e.get(metric.name)
            _require(isinstance(row, dict),
                     f"{where}: end-to-end metric {metric.name} missing")
            _require(row.get("unit") == metric.unit,
                     f"{where}: {metric.name} unit")
            for key in ("median", "q1", "q3"):
                _require(_number(row.get(key)),
                         f"{where}: {metric.name}.{key} must be a number")
            _require(isinstance(row.get("n"), int) and row["n"] >= 1
                     and len(row.get("values", ())) == row["n"],
                     f"{where}: {metric.name} sample count")
        layers = wl.get("per_layer")
        _require(isinstance(layers, dict), f"{where}: per_layer missing")
        for metric, (unit, _) in PER_LAYER.items():
            row = layers.get(metric)
            _require(isinstance(row, dict) and row.get("unit") == unit
                     and _number(row.get("value")),
                     f"{where}: per-layer metric {metric} missing or "
                     "mistyped")
