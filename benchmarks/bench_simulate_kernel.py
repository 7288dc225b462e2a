"""Microbenchmark: replay kernels vs the full interpreted path.

Times the pinned bench sweep (``repro.core.bench`` QUICK grid, serial)
twice — once with the replay kernels enabled (closed-form warm state
and final L2 sets) and once with them off (``replay._np`` set to None,
the path a numpy-less host runs) — and prints per-L2-size wall times
plus the speedup.  Each pass
sweeps the L2 sizes *in sequence over one warm-state memo*, the
production pattern the kernels target: the first size pays the one-time
warm derivation, the later sizes restore it from the memo.  The
two passes' result sets are checked field-for-field equal (the kernels'
bit-exactness contract; the full oracle lives in
``tests/test_simulate_kernel_oracle.py``)::

    PYTHONPATH=src python benchmarks/bench_simulate_kernel.py
    PYTHONPATH=src python benchmarks/bench_simulate_kernel.py --repeat 5
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from time import perf_counter

from repro.core.bench import QUICK_CONFIG
from repro.core.experiment import Experiment
from repro.core.parallel import RunSpec, prebuild_workloads
from repro.simulator import machine as machine_mod
from repro.simulator import replay
from repro.simulator.configs import fc_cmp
from repro.workloads import driver
from repro.workloads.tracestore import ENV_TRACE_DIR

SIZES_MB = QUICK_CONFIG["sizes_mb"]
KINDS = ["dss", "oltp"]


def _specs_for(size_mb: float, scale: float) -> list[RunSpec]:
    return [RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=size_mb, scale=scale),
                    kind)
            for kind in KINDS]


def _timed_pass(scale: float, cycles: int, repeat: int):
    """Serial L2-size sweeps over one shared memo; returns (times, results).

    Per repeat: cold workload caches and a cold warm-state memo, one
    prebuild of the grid's bundles, then the sizes run in order — so the
    first size pays the warm derivation and the later sizes restore it
    from the memo.  Best-of-``repeat`` per size.
    """
    times: dict[float, float] = {}
    results: dict[float, list] = {}
    all_specs = [spec for size in SIZES_MB
                 for spec in _specs_for(size, scale)]
    for _ in range(repeat):
        driver.clear_workload_caches()
        machine_mod._WARM_MEMO.clear()
        exp = Experiment(scale=scale, measure_cycles=cycles,
                         use_cache=False)
        prebuild_workloads(all_specs, scale)
        for size in SIZES_MB:
            specs = _specs_for(size, scale)
            t0 = perf_counter()
            out = exp.run_many(specs, jobs=1)
            dt = perf_counter() - t0
            if size not in times or dt < times[size]:
                times[size] = dt
            results[size] = [r.to_dict() for r in out]
    return times, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the serial pinned sweep per L2 size with the "
                    "replay kernels on vs off.")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats per cell; best-of is "
                             "reported (default: 3)")
    parser.add_argument("--scale", type=float,
                        default=QUICK_CONFIG["scale"],
                        help="study scale (default: the pinned quick grid)")
    parser.add_argument("--measure-cycles", type=int,
                        default=QUICK_CONFIG["measure_cycles"],
                        help="measurement window (default: quick grid)")
    args = parser.parse_args(argv)

    numpy = replay._np
    saved_trace_dir = os.environ.get(ENV_TRACE_DIR)
    with tempfile.TemporaryDirectory(prefix="repro-kbench-") as scratch:
        os.environ[ENV_TRACE_DIR] = os.path.join(scratch, "traces")
        try:
            on_times, on_results = _timed_pass(
                args.scale, args.measure_cycles, args.repeat)
            replay._np = None
            off_times, off_results = _timed_pass(
                args.scale, args.measure_cycles, args.repeat)
        finally:
            replay._np = numpy
            if saved_trace_dir is None:
                os.environ.pop(ENV_TRACE_DIR, None)
            else:
                os.environ[ENV_TRACE_DIR] = saved_trace_dir

    if on_results != off_results:
        print("MISMATCH: kernels-on results differ from kernels-off",
              file=sys.stderr)
        return 1
    print(f"{'L2 size':>8}  {'kernels':>10}  {'full':>10}  {'speedup':>8}")
    for size in SIZES_MB:
        on, off = on_times[size], off_times[size]
        ratio = off / on if on > 0 else float("inf")
        print(f"{size:>6g}MB  {on:>9.4f}s  {off:>9.4f}s  {ratio:>7.2f}x")
    total_on = sum(on_times.values())
    total_off = sum(off_times.values())
    print(f"{'total':>8}  {total_on:>9.4f}s  {total_off:>9.4f}s  "
          f"{total_off / total_on:>7.2f}x  (results bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
