"""The study-scale benchmark: four workloads, end-to-end and per-layer.

Two ways to run it, both from the repository root:

``python perf/run.py [--workloads a,b] [--runs 5] [--seed 1] [--out FILE]``
    The study.  Each workload runs ``--runs`` timed iterations and then
    one traced iteration, each in a fresh process.  Prints every metric
    with its unit, median, quartiles and sample count, checks every
    output against ``expected.json``, optionally writes the results file
    that ``compare.py`` reads, and exits 1 if any check failed.  ``--pin``
    records the observed output digests into ``expected.json`` instead of
    checking them.

``python perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload.  Untraced, it times whole iterations for
    about ``S`` seconds (at least one), with set-up-only processes before
    each, and reports the medians of the end-to-end metrics; traced, it
    runs one untraced and one traced iteration and reports the per-layer
    metrics of the layers the ``BENCHMARK.json`` workloads enter.  The
    last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``.

All load comes from one iteration process at a time.  Scratch caches and
trace stores live under ``.perf_work/`` and are removed after each
iteration; traced runs leave their spans in ``.perf_work/spans/`` and
iterations their bytecode in ``.perf_work/pycache/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics as m
from layers import PER_LAYER, entered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perf_work"
EXPECTED = HERE / "expected.json"

#: Set-up-only processes before each timed iteration of a single run.
#: A sweep sets up in about 0.5 s (imports), so a 55 s run gathers 12-15
#: ``setup_s`` samples.  ``serve`` adds none: its set-up fits the model
#: (about 15 s).
SETUPS_PER_ITERATION = {"oltp-sweep": 2, "dss-sweep": 2,
                        "explore-quick": 1, "serve": 0}

#: The per-layer metrics a traced single run reports.
SINGLE_RUN_LAYERS = [name for name in PER_LAYER
                     if entered(name, m.BENCHMARKED)]

#: A single run gives up (no result) once this many seconds have passed.
RUN_DEADLINE_S = 170.0


class IterationError(RuntimeError):
    """An iteration process failed or produced no result."""


def run_iteration(workload: str, seed: int, *, trace: bool = False,
                  setup_only: bool = False, spans: Path | None = None,
                  timeout: float | None = None) -> dict:
    """Run ``worker.py`` once in a fresh process; return its JSON result."""
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=runs))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    # Ambient REPRO_* knobs (scale, jobs, caches, faults) would change
    # what is measured.  ``setup_s`` is mostly imports, so bytecode is
    # always cached, in the scratch space: a caller that disables it would
    # otherwise time compilation.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise IterationError(f"{workload}: no result within "
                             f"{timeout:.0f}s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise IterationError(f"{workload}: iteration exited with code "
                             f"{proc.returncode}")
    return json.loads(lines[-1])


def load_expected() -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"workloads": {}}


def check_pins(doc: dict, expected: dict) -> dict:
    """Failures of ``doc``'s outputs against the pinned digests."""
    failures = dict(doc["failures"])
    pinned = expected["workloads"].get(doc["workload"])
    if (pinned is None or expected.get("code_version") != doc["code_version"]
            or expected.get("scale") != doc["scale"]):
        failures["pins"] = (f"no digests pinned for {doc['workload']} at "
                            f"{doc['code_version']}, scale {doc['scale']}")
        return failures
    for key in sorted(set(pinned) | set(doc["digests"])):
        if pinned.get(key) != doc["digests"].get(key):
            failures[f"pin:{key}"] = "output differs from expected.json"
    return failures


def failed_count(doc: dict, failures: dict) -> int:
    return min(doc["attempted"], len(failures))


# ---------------------------------------------------------------------- #
# One run (the single-run interface)                                      #
# ---------------------------------------------------------------------- #

def single_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()

    def remaining() -> float:
        return max(1.0, RUN_DEADLINE_S - (time.monotonic() - start))

    expected = load_expected()
    measured: list[dict] = []
    if trace:
        untraced = run_iteration(workload, seed, timeout=remaining())
        traced = run_iteration(
            workload, seed, trace=True, timeout=remaining(),
            spans=WORK / "spans" / f"{workload}-seed{seed}.jsonl")
        measured = [untraced, traced]
        values = dict(traced["layers"])
        values["trace.overhead_pct"] = (
            traced["wall_s"] / untraced["wall_s"] - 1) * 100
        out = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
               for name in SINGLE_RUN_LAYERS}
    else:
        # Iterations are 10-15 s long, so stop where the timed total lands
        # nearest ``seconds``: start another only while less than half of
        # one would run past it.
        setups: list[float] = []
        took: list[float] = []
        while not took or sum(took) + statistics.median(took) / 2 < seconds:
            setups += [run_iteration(workload, seed, setup_only=True,
                                     timeout=remaining())["setup_s"]
                       for _ in range(SETUPS_PER_ITERATION[workload])]
            t0 = time.monotonic()
            measured.append(run_iteration(workload, seed,
                                          timeout=remaining()))
            took.append(time.monotonic() - t0)
        values = {
            "wall_s": statistics.median(d["wall_s"] for d in measured),
            "setup_s": statistics.median(
                setups + [d["setup_s"] for d in measured]),
            "peak_rss_mb": statistics.median(
                d["peak_rss_mb"] for d in measured),
        }
        out = {metric.name: {"value": values[metric.name],
                             "unit": metric.unit}
               for metric in m.END_TO_END if metric.single_run}
    attempted = sum(d["attempted"] for d in measured)
    failed = 0
    for doc in measured:
        failures = check_pins(doc, expected)
        failed += failed_count(doc, failures)
        for op, message in failures.items():
            print(f"{workload}: {op}: {message}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


# ---------------------------------------------------------------------- #
# The study                                                                #
# ---------------------------------------------------------------------- #

def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def study_workload(workload: str, seed: int, runs: int, expected: dict,
                   pin: bool) -> dict:
    samples = [run_iteration(workload, seed) for _ in range(runs)]
    traced = run_iteration(workload, seed, trace=True,
                           spans=WORK / "spans" / f"{workload}.jsonl")
    docs = samples + [traced]
    failures: dict = {}
    failed = 0
    for i, doc in enumerate(docs):
        if pin:
            found = dict(doc["failures"])
            if doc["digests"] != docs[0]["digests"]:
                found["determinism"] = "digests differ between iterations"
        else:
            found = check_pins(doc, expected)
        failed += failed_count(doc, found)
        failures.update({f"iteration {i}: {op}": msg
                         for op, msg in found.items()})
    attempted = sum(d["attempted"] for d in docs)
    e2e = {
        "wall_s": [d["wall_s"] for d in samples],
        "setup_s": [d["setup_s"] for d in samples],
        "peak_rss_mb": [d["peak_rss_mb"] for d in samples],
        "failed_frac": [failed / attempted],
    }
    for name in ("answer_p95_ms", "model_mae_pct"):
        if workload in m.METRICS[name].workloads:
            e2e[name] = [d["metrics"][name] for d in samples]
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = (
        traced["wall_s"] / statistics.median(e2e["wall_s"]) - 1) * 100
    return {
        "definition": docs[0]["definition"],
        "code_version": docs[0]["code_version"],
        "digests": docs[0]["digests"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {name: {"unit": m.METRICS[name].unit,
                              **m.summary(values)}
                       for name, values in e2e.items()},
        "per_layer": {name: {"unit": PER_LAYER[name][0], "value": value}
                      for name, value in layers.items()},
    }


def format_workload(name: str, wl: dict) -> str:
    lines = [f"{name}: {wl['attempted']} operations checked, "
             f"{wl['failed']} failed"]
    for metric, row in wl["end_to_end"].items():
        lines.append(f"  {metric:<30} {row['median']:>14.6g} "
                     f"{row['unit']:<6} [q1 {row['q1']:.6g}, "
                     f"q3 {row['q3']:.6g}]  n={row['n']}")
    for metric, row in wl["per_layer"].items():
        lines.append(f"  {metric:<30} {row['value']:>14.6g} {row['unit']}")
    for op, message in wl["failures"].items():
        lines.append(f"  FAILED {op}: {message}")
    return "\n".join(lines)


def study(workloads: list[str], runs: int, seed: int, out: Path | None,
          pin: bool) -> int:
    expected = load_expected()
    doc = {
        "schema": m.RESULTS_SCHEMA,
        "commit": _git_commit(),
        "host": {"system": platform.system(),
                 "release": platform.release(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "scale": None,
        "seed": seed,
        "runs": runs,
        "workloads": {},
    }
    for name in workloads:
        wl = study_workload(name, seed, runs, expected, pin)
        doc["workloads"][name] = wl
        doc["scale"] = wl["definition"]["scale"]
        print(format_workload(name, wl), flush=True)
    if pin:
        for name, wl in doc["workloads"].items():
            expected["workloads"][name] = wl["digests"]
            expected["code_version"] = wl["code_version"]
            expected["scale"] = wl["definition"]["scale"]
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    m.validate_results(doc)
    if out is not None:
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    failed = sum(wl["failed"] for wl in doc["workloads"].values())
    print(f"{'FAILED' if failed else 'ok'}: {failed} failed operations")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Study-scale benchmark (see perf/README.md).")
    parser.add_argument("--workload", choices=m.WORKLOADS,
                        help="one run of one workload (single-run mode)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="single-run mode: seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single-run mode: 1 reports per-layer metrics")
    parser.add_argument("--workloads", default=",".join(m.WORKLOADS),
                        help="study mode: comma-separated workloads")
    parser.add_argument("--runs", type=int, default=5,
                        help="study mode: timed iterations per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="study mode: write the results file here")
    parser.add_argument("--pin", action="store_true",
                        help="study mode: record digests in expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            result = single_run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
            print(json.dumps(result, sort_keys=True))
            return 0
        names = [w for w in args.workloads.split(",") if w]
        unknown = sorted(set(names) - set(m.WORKLOADS))
        if unknown or args.runs < 1:
            parser.error(f"unknown workloads {unknown}" if unknown
                         else "--runs must be at least 1")
        return study(names, args.runs, args.seed, args.out, args.pin)
    except IterationError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
