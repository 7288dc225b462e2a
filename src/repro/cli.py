"""Command-line runner: regenerate the paper's figures without pytest.

Usage::

    python -m repro list
    python -m repro table1 fig4 fig5          # specific figures
    python -m repro all                       # everything (minutes)
    python -m repro profile oltp              # inspect a workload bundle
    python -m repro validate                  # the Fig. 3 comparison
    python -m repro --scale 0.1 fig6          # override the study scale
    python -m repro --jobs 4 fig6             # fan sweeps over 4 workers
    python -m repro --cache-dir .repro-cache all   # persistent results

Resilience (see DESIGN.md §6)::

    python -m repro --jobs 4 --timeout 600 --retries 3 all
    python -m repro --jobs 4 --cache-dir .repro-cache all  # rerun resumes
    python -m repro --fail-fast fig6                   # abort on first loss

Observability (see DESIGN.md §7)::

    python -m repro --telemetry .telemetry --jobs 4 fig6   # JSONL events
    python -m repro stats .telemetry                       # sweep summary

Analytical model + design-space explorer (see DESIGN.md §10)::

    python -m repro model fit --model-out model.json  # calibrate + save
    python -m repro model predict --camp lc --cores 8 --l2-mb 4
    python -m repro model validate                    # held-out error table
    python -m repro validate --model                  # same table
    python -m repro explore                           # prune-then-confirm
    python -m repro explore --quick --jobs 4          # CI smoke budget

Hardware islands (see DESIGN.md §15)::

    python -m repro sweep --sockets 2                 # placement study
    python -m repro sweep --sockets 2 --placement island-partitioned
    python -m repro explore --islands                 # sockets x placement
    python -m repro --scale 0.05 explore --islands --quick

Design-space-as-a-service (see DESIGN.md §12)::

    python -m repro serve                             # TCP JSON-lines API
    python -m repro serve --host 0.0.0.0 --port 9000
    python -m repro --scale 0.05 serve --self-test    # CI smoke probe

Host-time benchmarking lives in ``perf/`` (see perf/README.md).

Every run reads its configuration once into a
:class:`~repro.settings.Settings` from the eleven ``REPRO_*`` variables
(README lists them), then lays the flags over it: ``--scale``,
``--jobs``, ``--cache-dir``, ``--timeout``, ``--retries``,
``--fail-fast`` and ``--telemetry`` override ``REPRO_SCALE``,
``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ``REPRO_TIMEOUT``,
``REPRO_RETRIES``, ``REPRO_FAIL_FAST`` and ``REPRO_TELEMETRY``.  A bad
value, from either source, exits 2 with one message naming the variable.
The CLI never writes the environment.  A sweep writes each finished
point to the result cache, so rerunning a killed sweep with the same
cache directory simulates only the points it had not finished.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .core import figures, telemetry
from .core.experiment import Experiment, SweepError
from .settings import Settings, SettingsError
from .workloads.driver import workload_for
from .workloads.profile import format_profile, profile_workload

#: Figure name -> (callable, needs experiment).
FIGURES = {
    "table1": (figures.table1_text, False),
    "fig1": (figures.figure1, False),
    "fig2": (figures.figure2, True),
    "fig3": (figures.figure3, True),
    "fig4": (figures.figure4, True),
    "fig5": (figures.figure5, True),
    "fig6": (figures.figure6, True),
    "fig7": (figures.figure7, True),
    "fig8": (figures.figure8, True),
}


def _banner(title: str) -> str:
    line = "=" * 72
    return f"{line}\n{title}\n{line}"


def _print_cache_stats(exp: Experiment) -> None:
    """Surface disk-cache accounting after a run (no cache: silent)."""
    stats = exp.cache_stats()
    if stats is not None:
        print("cache: " + " ".join(f"{k}={v}" for k, v in stats.items()))
    summary = exp.telemetry_summary()
    if summary is not None:
        print(f"telemetry: {summary['specs']} specs "
              f"(p50 {summary['spec_wall_p50']:.2f}s, "
              f"p95 {summary['spec_wall_p95']:.2f}s, "
              f"util {summary['worker_utilization']:.0%}) -> "
              f"{exp.telemetry.path}")


def _experiment(args) -> Experiment:
    """The experiment every target runs on: the resolved settings, and
    no disk cache under ``--no-cache``."""
    return Experiment(settings=args.settings, use_cache=not args.no_cache)


def run_figures(names: list[str], args) -> int:
    """Regenerate the named figures; returns a process exit code."""
    exp = _experiment(args)
    for name in names:
        fn, needs_exp = FIGURES[name]
        start = time.time()
        try:
            text = fn(exp) if needs_exp else fn()
        except SweepError as err:
            print(f"{name}: sweep failed — {err}", file=sys.stderr)
            for failure in err.failures:
                print(f"  spec {failure.index} [{failure.kind}] after "
                      f"{failure.attempts} attempt(s): {failure.message}",
                      file=sys.stderr)
            print("completed results are in the result cache (when one "
                  "is set); rerun with the same --cache-dir (optionally "
                  "with --retries/--timeout) to simulate only the "
                  "remainder", file=sys.stderr)
            _print_cache_stats(exp)
            return 1
        print(_banner(f"{name}  (scale {exp.scale:g}, "
                      f"{time.time() - start:.1f}s)"))
        print(text)
        print()
    _print_cache_stats(exp)
    return 0


def run_profile(kind: str, args) -> int:
    """Print the workload profile for one saturated bundle."""
    exp = _experiment(args)
    workload = workload_for(kind, "saturated", exp.scale)
    print(format_profile(profile_workload(workload)))
    return 0


def run_stats(target: str) -> int:
    """Summarize a telemetry event log (``repro stats DIR|FILE``)."""
    path = telemetry.telemetry_path(target)
    if not os.path.exists(path):
        print(f"no telemetry log at {path}", file=sys.stderr)
        return 2
    events = telemetry.load_events(path)
    if not events:
        print(f"telemetry log {path} holds no readable events",
              file=sys.stderr)
        return 2
    print(telemetry.format_summary(telemetry.summarize(events)))
    return 0


def run_sweep_cmd(args) -> int:
    """The ``repro sweep`` target: contention or islands study.

    By default runs the (theta x cc_mode) contention grid — skewed
    traces through the simulator plus the logical CC executor per
    point.  With ``--sockets`` (or ``--placement``) it runs the
    hardware-islands placement study instead
    (see ``repro.core.figures.islands``).
    """
    if args.sockets is not None or args.placement is not None:
        return run_islands_sweep_cmd(args)
    thetas = tuple(args.skew_theta) if args.skew_theta else None
    cc_modes = (("2pl", "partitioned") if args.cc_mode == "both"
                else (args.cc_mode,))
    exp = _experiment(args)
    start = time.time()
    try:
        kwargs = {"cc_modes": cc_modes,
                  "hot_warehouses": args.hot_warehouses,
                  "cross_rate": args.cross_rate}
        if thetas is not None:
            kwargs["thetas"] = thetas
        text = figures.contention(exp, **kwargs)
    except SweepError as err:
        print(f"sweep: failed — {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"sweep: invalid parameters — {err}", file=sys.stderr)
        return 2
    print(_banner(f"contention sweep  (scale {exp.scale:g}, "
                  f"{time.time() - start:.1f}s)"))
    print(text)
    _print_cache_stats(exp)
    return 0


def run_islands_sweep_cmd(args) -> int:
    """The ``repro sweep --sockets/--placement`` target: the
    hardware-islands placement study
    (see ``repro.core.figures.islands``)."""
    from .simulator.topology import PLACEMENTS

    sockets = args.sockets if args.sockets is not None else 2
    placements = ((args.placement,) if args.placement is not None
                  else PLACEMENTS)
    exp = _experiment(args)
    start = time.time()
    try:
        text = figures.islands(exp, sockets=sockets, placements=placements)
    except SweepError as err:
        print(f"sweep: failed — {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"sweep: invalid parameters — {err}", file=sys.stderr)
        return 2
    print(_banner(f"islands sweep  (scale {exp.scale:g}, "
                  f"{time.time() - start:.1f}s)"))
    print(text)
    _print_cache_stats(exp)
    return 0


def run_serve_cmd(args) -> int:
    """The ``repro serve`` target: TCP front end or ``--self-test``."""
    from .serve import DesignService
    from .serve.server import run_self_test, run_server

    service = DesignService(_experiment(args))
    if args.self_test:
        return run_self_test(service)
    return run_server(service, host=args.host, port=args.port)


def run_explore_cmd(args) -> int:
    """The prune-then-confirm loop (``repro explore``).

    Exit code 0 only when the confirmed frontier is non-empty, the
    paper's qualitative checks hold, and the held-out model error is
    within the bound — so CI can smoke-test the whole subsystem with a
    single invocation.
    """
    from .explore import explore, explore_islands, format_explore, \
        format_islands

    exp = _experiment(args)
    if args.islands:
        sockets = (args.sockets,) if args.sockets is not None else None
        placements = ((args.placement,) if args.placement is not None
                      else None)
        try:
            kwargs = {}
            if placements is not None:
                kwargs["placements"] = placements
            report = explore_islands(exp, budget_mm2=args.budget,
                                     sockets=sockets, quick=args.quick,
                                     **kwargs)
        except SweepError as err:
            print(f"explore: sweep failed — {err}", file=sys.stderr)
            return 1
        except ValueError as err:
            print(f"explore: invalid parameters — {err}", file=sys.stderr)
            return 2
        print(format_islands(report))
        _print_cache_stats(exp)
        ok = (bool(report.confirmed)
              and report.all_checks_pass
              and report.within_bound)
        if not ok:
            print("explore: island confirmation failed (no confirmed "
                  "cells, a qualitative check, or the screening error "
                  "bound)", file=sys.stderr)
        return 0 if ok else 1
    try:
        report = explore(exp, budget_mm2=args.budget, quick=args.quick)
    except SweepError as err:
        print(f"explore: sweep failed — {err}", file=sys.stderr)
        return 1
    print(format_explore(report))
    _print_cache_stats(exp)
    ok = (bool(report.confirmed)
          and report.all_checks_pass
          and (report.validation is None or report.validation.within_bound))
    if not ok:
        print("explore: confirmation failed (empty frontier, a "
              "qualitative check, or the model error bound)",
              file=sys.stderr)
    return 0 if ok else 1


def run_model_cmd(verb: str, args) -> int:
    """The ``repro model fit|predict|validate`` verbs."""
    from .core.validation import format_model_validation, validate_model
    from .model import calibrate
    from .model.calibrate import CalibratedModel

    exp = _experiment(args)

    def resolve_model():
        if args.model_in:
            model = CalibratedModel.load(args.model_in)
            if model.scale != exp.scale:
                print(f"note: model was calibrated at scale "
                      f"{model.scale:g}, predicting at {exp.scale:g}",
                      file=sys.stderr)
            return model
        return calibrate.fit(exp)

    if verb == "fit":
        model = calibrate.fit(exp)
        out = args.model_out or "model.json"
        model.save(out)
        cells = ", ".join("/".join(c) for c in sorted(model.signatures))
        print(f"calibrated {len(model.signatures)} signatures "
              f"(scale {exp.scale:g}): {cells}")
        print(f"wrote {out}")
        _print_cache_stats(exp)
        return 0
    if verb == "validate":
        model = resolve_model() if args.model_in else None
        report = validate_model(exp, model=model)
        print(format_model_validation(report))
        _print_cache_stats(exp)
        return 0 if report.within_bound else 1
    if verb == "predict":
        from .core.reporting import format_table

        model = resolve_model()
        config = calibrate.config_for(
            args.camp, args.l2_mb, exp.scale,
            n_cores=args.cores, l2_banks=args.banks)
        rows = []
        for kind in ("oltp", "dss"):
            for regime in ("saturated", "unsaturated"):
                p = model.predict(config, kind, regime)
                rows.append([
                    kind, regime, p.thread_cpi, p.ipc,
                    "-" if p.response_cycles is None
                    else f"{p.response_cycles:.3g}",
                    f"{p.utilization:.0%}", p.queue_wait,
                ])
        print(format_table(
            ["kind", "regime", "CPI", "chip IPC", "response cyc",
             "L2 util", "bank wait"],
            rows, title=f"model predictions — {config.name} "
                        f"({args.banks} banks)"))
        return 0
    print(f"unknown model verb {verb!r} "
          "(expected fit, predict, or validate)", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Database Servers on Chip "
                    "Multiprocessors' (CIDR 2007).",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="study scale factor (default: REPRO_SCALE "
                             "or 0.25)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for sweep fan-out "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result-cache root (default: "
                             "REPRO_CACHE_DIR, or no disk cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-spec wall-clock limit in seconds; a "
                             "stuck simulation is killed and retried "
                             "(default: REPRO_TIMEOUT, or no limit)")
    parser.add_argument("--retries", type=int, default=None,
                        help="failed attempts each sweep point may retry "
                             "(default: REPRO_RETRIES or 2)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort a sweep on the first point that "
                             "exhausts its retries (default: finish the "
                             "rest of the grid, then report)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="append JSONL run-telemetry events under DIR "
                             "(or to DIR itself when it ends in .jsonl); "
                             "summarize later with 'repro stats DIR' "
                             "(default: REPRO_TELEMETRY, or off)")
    parser.add_argument("--quick", action="store_true",
                        help="with 'explore': the small candidate budget "
                             "(the CI configuration)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="with 'serve': bind address")
    parser.add_argument("--port", type=int, default=8642,
                        help="with 'serve': TCP port (0 for ephemeral)")
    parser.add_argument("--self-test", action="store_true",
                        help="with 'serve': boot on an ephemeral port, "
                             "probe health, coalescing, deadlines, "
                             "bad-request rejections and stats over real "
                             "sockets, and exit 0/1 (the CI smoke)")
    parser.add_argument("--model", action="store_true",
                        help="with 'validate': compare the analytical "
                             "model against the simulator on held-out "
                             "configs instead of the Fig. 3 stack")
    parser.add_argument("--budget", type=float, default=None,
                        help="with 'explore': equal-area silicon budget "
                             "in mm^2 (default: the 4-core fat baseline "
                             "chip, or the small CI budget with --quick)")
    parser.add_argument("--model-out", metavar="PATH", default=None,
                        help="with 'model fit': where to write the "
                             "calibrated model JSON (default: model.json)")
    parser.add_argument("--model-in", metavar="PATH", default=None,
                        help="with 'model predict/validate': load a "
                             "previously fitted model instead of "
                             "recalibrating")
    parser.add_argument("--camp", choices=["fc", "lc"], default="fc",
                        help="with 'model predict': core camp")
    parser.add_argument("--cores", type=int, default=4,
                        help="with 'model predict': core count")
    parser.add_argument("--l2-mb", type=float, default=26.0,
                        help="with 'model predict': nominal L2 MB")
    parser.add_argument("--banks", type=int, default=4,
                        help="with 'model predict': L2 bank count")
    parser.add_argument("--skew-theta", type=float, action="append",
                        metavar="THETA", default=None,
                        help="with 'sweep': Zipfian exponent for the "
                             "contention grid; repeat for several points "
                             "(default: 0, 0.6, 0.9, 1.2)")
    parser.add_argument("--hot-warehouses", type=int, default=None,
                        help="with 'sweep': restrict client homes to the "
                             "first N warehouses (hotspot knob)")
    parser.add_argument("--cross-rate", type=float, default=None,
                        help="with 'sweep': cross-warehouse probability "
                             "override (default: TPC-C's 1%%/15%%)")
    parser.add_argument("--cc-mode", choices=["2pl", "partitioned", "both"],
                        default="both",
                        help="with 'sweep': concurrency-control mode(s) "
                             "to run (default: both)")
    parser.add_argument("--sockets", type=int, default=None,
                        help="with 'sweep': run the hardware-islands "
                             "placement study on N sockets instead of the "
                             "contention grid; with 'explore --islands': "
                             "restrict to this socket count")
    parser.add_argument("--placement", default=None,
                        choices=["shared-everything", "island-partitioned",
                                 "hybrid"],
                        help="with 'sweep --sockets' or 'explore "
                             "--islands': restrict to one placement "
                             "policy (default: all three)")
    parser.add_argument("--islands", action="store_true",
                        help="with 'explore': run the sockets x placement "
                             "island exploration (anchored screening; "
                             "see --sockets/--placement)")
    parser.add_argument("targets", nargs="*", default=["list"],
                        help="figure names, 'all', 'list', 'validate', "
                             "'profile <oltp|dss>', 'stats <telemetry>', "
                             "'explore', 'serve', 'sweep', or "
                             "'model <fit|predict|validate>'")
    args = parser.parse_args(argv)

    flags = {"scale": args.scale, "jobs": args.jobs,
             "cache_dir": args.cache_dir, "timeout": args.timeout,
             "retries": args.retries, "telemetry": args.telemetry,
             "fail_fast": True if args.fail_fast else None}
    try:
        args.settings = replace(
            Settings.from_env(),
            **{k: v for k, v in flags.items() if v is not None})
    except SettingsError as err:
        print(f"repro: {err}", file=sys.stderr)
        return 2

    targets = list(args.targets) or ["list"]
    if targets[0] == "list":
        print("available targets:")
        for name in FIGURES:
            print(f"  {name}")
        print("  all        (every figure)")
        print("  validate   (Fig. 3 comparison, report only)")
        print("  profile <oltp|dss>")
        print("  stats <telemetry-dir-or-.jsonl>")
        print("  explore    (equal-area design-space exploration; "
              "see --quick/--budget/--islands)")
        print("  serve      (async design-query service; "
              "see --host/--port/--self-test)")
        print("  sweep      (contention study, or the islands study "
              "with --sockets/--placement)")
        print("  model <fit|predict|validate>   (analytical model)")
        return 0
    if targets[0] == "profile":
        if len(targets) != 2 or targets[1] not in ("oltp", "dss"):
            print("usage: repro profile <oltp|dss>", file=sys.stderr)
            return 2
        return run_profile(targets[1], args)
    if targets[0] == "stats":
        source = (targets[1] if len(targets) == 2
                  else args.settings.telemetry)
        if not source:
            print("usage: repro stats <telemetry-dir-or-.jsonl> "
                  "(or set --telemetry/REPRO_TELEMETRY)", file=sys.stderr)
            return 2
        return run_stats(source)
    if targets[0] == "serve":
        if len(targets) != 1:
            print("usage: repro serve [--host HOST] [--port PORT] "
                  "[--self-test]", file=sys.stderr)
            return 2
        return run_serve_cmd(args)
    if targets[0] == "sweep":
        if len(targets) != 1:
            print("usage: repro sweep [--skew-theta THETA ...] "
                  "[--hot-warehouses N] [--cross-rate P] "
                  "[--cc-mode 2pl|partitioned|both] "
                  "[--sockets N [--placement P]]", file=sys.stderr)
            return 2
        return run_sweep_cmd(args)
    if targets[0] == "explore":
        if len(targets) != 1:
            print("usage: repro explore [--quick] [--budget MM2] "
                  "[--islands [--sockets N] [--placement P]]",
                  file=sys.stderr)
            return 2
        return run_explore_cmd(args)
    if targets[0] == "model":
        verbs = ("fit", "predict", "validate")
        if len(targets) != 2 or targets[1] not in verbs:
            print("usage: repro model <fit|predict|validate>",
                  file=sys.stderr)
            return 2
        return run_model_cmd(targets[1], args)
    if targets[0] == "validate":
        if args.model:
            return run_model_cmd("validate", args)
        return run_figures(["fig3"], args)
    if targets == ["all"]:
        targets = list(FIGURES)
    unknown = [t for t in targets if t not in FIGURES]
    if unknown:
        print(f"unknown targets: {', '.join(unknown)} "
              f"(try 'list')", file=sys.stderr)
        return 2
    return run_figures(targets, args)
