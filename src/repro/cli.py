"""Command-line runner: regenerate the paper's figures without pytest.

Usage::

    python -m repro                           # the target list
    python -m repro table1 fig4 fig5          # specific figures
    python -m repro all                       # everything (minutes)
    python -m repro profile oltp              # inspect a workload bundle
    python -m repro validate                  # the Fig. 3 comparison
    python -m repro claims                    # check every paper claim
    python -m repro claims fig4 fig6          # one table per group named
    python -m repro --scale 0.1 fig6          # override the study scale
    python -m repro --jobs 4 fig6             # fan sweeps over 4 workers
    python -m repro --cache-dir .repro-cache all   # persistent results
    python -m repro explore --help            # one target's own flags

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
    python -m repro explore                           # prune-then-confirm
    python -m repro --jobs 4 explore --quick          # CI smoke budget

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

Each target is an ``argparse`` subcommand that declares only the flags
it reads, so a flag given to the wrong target (``fig1 --cores 8``,
``explore --sockets 2`` without ``--islands``) exits 2.  The run-wide
flags go before the target: ``--no-cache`` and the seven settings flags
``--scale``, ``--jobs``, ``--cache-dir``, ``--timeout``, ``--retries``,
``--fail-fast`` and ``--telemetry``, which override ``REPRO_SCALE``,
``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ``REPRO_TIMEOUT``,
``REPRO_RETRIES``, ``REPRO_FAIL_FAST`` and ``REPRO_TELEMETRY`` in the
:class:`~repro.settings.Settings` read once from the eleven ``REPRO_*``
variables (README lists them).  The CLI never writes the environment.
Invalid input, from a flag, a variable or a target's arguments, exits 2
with one ``repro <target>: ...`` line; a sweep that loses points exits 1
and lists them, and so does ``claims`` for a claim whose verdict falls
below its expected one.  A sweep writes each finished point to the result cache,
so rerunning a killed sweep with the same cache directory simulates only
the points it had not finished.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .core import claims, figures, telemetry
from .core.experiment import Experiment, SweepError
from .settings import Settings
from .simulator.topology import PLACEMENTS
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


def _given(args, *dests: str) -> list[str]:
    """The flags among ``dests`` that the command line set."""
    return ["--" + d.replace("_", "-") for d in dests
            if getattr(args, d) is not None]


def run_figures(args, exp: Experiment) -> int:
    """Regenerate ``args.figures`` plus any further ``args.more``."""
    unknown = [name for name in args.more if name not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figures {', '.join(unknown)} "
                         f"(try 'repro list')")
    for name in args.figures + args.more:
        fn, needs_exp = FIGURES[name]
        start = time.time()
        text = fn(exp) if needs_exp else fn()
        print(_banner(f"{name}  (scale {exp.scale:g}, "
                      f"{time.time() - start:.1f}s)"))
        print(text)
        print()
    _print_cache_stats(exp)
    return 0


def run_claims(args, exp: Experiment) -> int:
    """Measure and check the paper claims of ``args.groups`` (all by
    default): one markdown table per group plus the summary line, which
    at the study scale is EXPERIMENTS.md's generated block.  Exits 1
    when a claim's verdict ranks below its expected one."""
    unknown = [g for g in args.groups if g not in claims.GROUPS]
    if unknown:
        raise ValueError(f"unknown claim groups {', '.join(unknown)} "
                         f"(one of {', '.join(claims.GROUPS)})")
    rows = claims.claim_rows(exp, set(args.groups) or None)
    print(claims.format_markdown(rows, exp.scale))
    regressed = claims.regressions(rows)
    for row in regressed:
        print(f"{args.prog}: {row.group} claim '{row.claim}' is "
              f"{row.verdict}, expected {row.expected}", file=sys.stderr)
    return 1 if regressed else 0


def run_profile(args, exp: Experiment) -> int:
    """Print the workload profile for one saturated bundle."""
    workload = workload_for(args.kind, "saturated", exp.scale)
    print(format_profile(profile_workload(workload)))
    return 0


def run_stats(args, exp: Experiment) -> int:
    """Summarize a telemetry event log (``repro stats DIR|FILE``)."""
    source = args.log or exp.settings.telemetry
    if not source:
        raise ValueError("no telemetry log given (pass DIR|FILE, or set "
                         "--telemetry/REPRO_TELEMETRY)")
    path = telemetry.telemetry_path(source)
    if not os.path.exists(path):
        raise ValueError(f"no telemetry log at {path}")
    events = telemetry.load_events(path)
    if not events:
        raise ValueError(f"telemetry log {path} holds no readable events")
    print(telemetry.format_summary(telemetry.summarize(events)))
    return 0


def run_sweep(args, exp: Experiment) -> int:
    """The ``repro sweep`` target: contention or islands study.

    By default runs the (theta x cc_mode) contention grid — skewed
    traces through the simulator plus the logical CC executor per
    point.  With ``--sockets`` (or ``--placement``) it runs the
    hardware-islands placement study instead
    (see ``repro.core.figures.islands``).
    """
    islands = _given(args, "sockets", "placement")
    contention = _given(args, "skew_theta", "hot_warehouses", "cross_rate",
                        "cc_mode")
    if islands and contention:
        raise ValueError(f"{'/'.join(islands)} (islands study) and "
                         f"{'/'.join(contention)} (contention study) "
                         f"cannot be combined")
    start = time.time()
    if islands:
        title = "islands sweep"
        text = figures.islands(
            exp, sockets=2 if args.sockets is None else args.sockets,
            placements=(PLACEMENTS if args.placement is None
                        else (args.placement,)))
    else:
        title = "contention sweep"
        cc_modes = (("2pl", "partitioned")
                    if args.cc_mode in (None, "both") else (args.cc_mode,))
        text = figures.contention(
            exp, thetas=tuple(args.skew_theta or figures.CONTENTION_THETAS),
            cc_modes=cc_modes, hot_warehouses=args.hot_warehouses,
            cross_rate=args.cross_rate)
    print(_banner(f"{title}  (scale {exp.scale:g}, "
                  f"{time.time() - start:.1f}s)"))
    print(text)
    _print_cache_stats(exp)
    return 0


def run_serve(args, exp: Experiment) -> int:
    """The ``repro serve`` target: TCP front end or ``--self-test``."""
    from .serve import DesignService
    from .serve.server import run_self_test, run_server

    service = DesignService(exp)
    if args.self_test:
        return run_self_test(service)
    return run_server(service, host=args.host, port=args.port)


def run_explore(args, exp: Experiment) -> int:
    """The prune-then-confirm loop (``repro explore``).

    Exit code 0 only when the confirmed frontier is non-empty, the
    paper's qualitative checks hold, and the held-out model error is
    within the bound — so CI can smoke-test the whole subsystem with a
    single invocation.
    """
    from .explore import explore, explore_islands, format_explore, \
        format_islands

    if args.islands:
        kwargs = {} if args.placement is None else {
            "placements": (args.placement,)}
        report = explore_islands(
            exp, budget_mm2=args.budget, quick=args.quick,
            sockets=None if args.sockets is None else (args.sockets,),
            **kwargs)
        print(format_islands(report))
        within_bound = report.within_bound
        failure = ("island confirmation failed (no confirmed cells, a "
                   "qualitative check, or the screening error bound)")
    else:
        stray = _given(args, "sockets", "placement")
        if stray:
            raise ValueError(f"{'/'.join(stray)} needs --islands")
        report = explore(exp, budget_mm2=args.budget, quick=args.quick)
        print(format_explore(report))
        within_bound = (report.validation is None
                        or report.validation.within_bound)
        failure = ("confirmation failed (empty frontier, a qualitative "
                   "check, or the model error bound)")
    _print_cache_stats(exp)
    ok = bool(report.confirmed) and report.all_checks_pass and within_bound
    if not ok:
        print(f"explore: {failure}", file=sys.stderr)
    return 0 if ok else 1


def _model(args, exp: Experiment):
    """The model ``--model-in`` names, or a fresh fit when it is unset."""
    from .model import calibrate

    if args.model_in is None:
        return calibrate.fit(exp)
    try:
        model = calibrate.CalibratedModel.load(args.model_in)
    except (OSError, ValueError) as err:
        reason = err.strerror if isinstance(err, OSError) else err
        raise ValueError(f"cannot load --model-in {args.model_in}: "
                         f"{reason}") from err
    if model.scale != exp.scale:
        print(f"note: model was calibrated at scale {model.scale:g}, "
              f"predicting at {exp.scale:g}", file=sys.stderr)
    return model


def run_model_fit(args, exp: Experiment) -> int:
    """``repro model fit``: calibrate and write the model JSON."""
    from .model import calibrate

    model = calibrate.fit(exp)
    model.save(args.model_out)
    cells = ", ".join("/".join(c) for c in sorted(model.signatures))
    print(f"calibrated {len(model.signatures)} signatures "
          f"(scale {exp.scale:g}): {cells}")
    print(f"wrote {args.model_out}")
    _print_cache_stats(exp)
    return 0


def run_model_validate(args, exp: Experiment) -> int:
    """``repro model validate``: the held-out model error table."""
    from .core.validation import format_model_validation, validate_model

    report = validate_model(exp, model=_model(args, exp))
    print(format_model_validation(report))
    _print_cache_stats(exp)
    return 0 if report.within_bound else 1


def run_model_predict(args, exp: Experiment) -> int:
    """``repro model predict``: both regimes of one machine."""
    from .core.reporting import format_table
    from .serve.query import DesignQuery

    # Validate the machine before fitting or loading anything.
    config = DesignQuery(args.camp, args.cores, args.l2_mb,
                         args.banks).config(exp.scale)
    model = _model(args, exp)
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


def _port(text: str) -> int:
    """A TCP port number, 0-65535 (argparse type)."""
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid port {text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} is not in 0-65535")
    return port


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: run-wide flags, then one subcommand per
    target, each registering its handler with ``set_defaults``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Database Servers on Chip "
                    "Multiprocessors' (CIDR 2007).",
    )
    parser.set_defaults(handler=None, prog="repro")
    parser.add_argument("--scale", type=float,
                        help="study scale factor (default: REPRO_SCALE "
                             "or 0.25)")
    parser.add_argument("--jobs", type=int,
                        help="worker processes for sweep fan-out "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--cache-dir",
                        help="persistent result-cache root (default: "
                             "REPRO_CACHE_DIR, or no disk cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--timeout", type=float,
                        help="per-spec wall-clock limit in seconds; a "
                             "stuck simulation is killed and retried "
                             "(default: REPRO_TIMEOUT, or no limit)")
    parser.add_argument("--retries", type=int,
                        help="failed attempts each sweep point may retry "
                             "(default: REPRO_RETRIES or 2)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort a sweep on the first point that "
                             "exhausts its retries (default: finish the "
                             "rest of the grid, then report)")
    parser.add_argument("--telemetry", metavar="DIR",
                        help="append JSONL run-telemetry events under DIR "
                             "(or to DIR itself when it ends in .jsonl); "
                             "summarize later with 'repro stats DIR' "
                             "(default: REPRO_TELEMETRY, or off)")
    targets = parser.add_subparsers(title="available targets",
                                    dest="target", metavar="TARGET")

    def target(subs, name, handler, summary, parents=(), **defaults):
        sub = subs.add_parser(name, help=summary, description=summary,
                              parents=list(parents))
        sub.set_defaults(handler=handler, prog=sub.prog, **defaults)
        return sub

    for name, (fn, _) in FIGURES.items():
        fig = target(targets, name, run_figures,
                     (fn.__doc__ or name).splitlines()[0], figures=[name])
        fig.add_argument("more", nargs="*", metavar="FIG",
                         help="further figures to regenerate")
    target(targets, "all", run_figures, "every figure above",
           figures=list(FIGURES), more=[])
    target(targets, "validate", run_figures,
           "the Fig. 3 comparison, report only", figures=["fig3"], more=[])
    target(targets, "list", None, "this list")

    sub = target(targets, "claims", run_claims,
                 "check every paper claim; exit 1 when one regresses")
    sub.add_argument("groups", nargs="*", metavar="GROUP",
                     help="claim groups to check (default: all): "
                          + ", ".join(claims.GROUPS))

    sub = target(targets, "profile", run_profile,
                 "profile one saturated workload bundle")
    sub.add_argument("kind", choices=["oltp", "dss"])

    sub = target(targets, "stats", run_stats,
                 "summarize a telemetry event log")
    sub.add_argument("log", nargs="?", metavar="DIR|FILE",
                     help="telemetry directory or .jsonl file (default: "
                          "--telemetry/REPRO_TELEMETRY)")

    sub = target(targets, "explore", run_explore,
                 "equal-area design-space exploration")
    sub.add_argument("--quick", action="store_true",
                     help="the small candidate budget (the CI "
                          "configuration)")
    sub.add_argument("--budget", type=float,
                     help="equal-area silicon budget in mm^2 (default: "
                          "the 4-core fat baseline chip, or the small CI "
                          "budget with --quick)")
    sub.add_argument("--islands", action="store_true",
                     help="the sockets x placement island exploration "
                          "(anchored screening)")
    sub.add_argument("--sockets", type=int,
                     help="with --islands: restrict to this socket count")
    sub.add_argument("--placement", choices=PLACEMENTS,
                     help="with --islands: restrict to one placement "
                          "policy (default: all three)")

    sub = target(targets, "serve", run_serve,
                 "async design-query service")
    sub.add_argument("--host", default="127.0.0.1", help="bind address")
    sub.add_argument("--port", type=_port, default=8642,
                     help="TCP port, 0-65535 (0 for ephemeral)")
    sub.add_argument("--self-test", action="store_true",
                     help="boot on an ephemeral port, probe health, "
                          "coalescing, deadlines, bad-request rejections "
                          "and stats over real sockets, and exit 0/1 "
                          "(the CI smoke)")

    sub = target(targets, "sweep", run_sweep,
                 "contention study, or the islands study with "
                 "--sockets/--placement")
    study = sub.add_argument_group("contention study (the default)")
    study.add_argument("--skew-theta", type=float, action="append",
                       metavar="THETA",
                       help="Zipfian exponent; repeat for several points "
                            "(default: 0, 0.6, 0.9, 1.2)")
    study.add_argument("--hot-warehouses", type=int,
                       help="restrict client homes to the first N "
                            "warehouses (hotspot knob)")
    study.add_argument("--cross-rate", type=float,
                       help="cross-warehouse probability override "
                            "(default: TPC-C's 1%%/15%%)")
    study.add_argument("--cc-mode", choices=["2pl", "partitioned", "both"],
                       help="concurrency-control mode(s) to run "
                            "(default: both)")
    study = sub.add_argument_group("islands study")
    study.add_argument("--sockets", type=int,
                       help="socket count (default: 2)")
    study.add_argument("--placement", choices=PLACEMENTS,
                       help="one placement policy (default: all three)")

    model = target(targets, "model", None, "the analytical model")
    verbs = model.add_subparsers(title="verbs", dest="verb",
                                 metavar="VERB", required=True)
    model_in = argparse.ArgumentParser(add_help=False)
    model_in.add_argument("--model-in", metavar="PATH",
                          help="load a previously fitted model instead "
                               "of recalibrating")
    sub = target(verbs, "fit", run_model_fit,
                 "calibrate the model and write it as JSON")
    sub.add_argument("--model-out", metavar="PATH", default="model.json",
                     help="where to write the model (default: model.json)")
    target(verbs, "validate", run_model_validate,
           "the model vs the simulator on held-out configs",
           parents=[model_in])
    sub = target(verbs, "predict", run_model_predict,
                 "predict both regimes of one machine", parents=[model_in])
    sub.add_argument("--camp", choices=["fc", "lc"], default="fc",
                     help="core camp")
    sub.add_argument("--cores", type=int, default=4, help="core count")
    sub.add_argument("--l2-mb", type=float, default=26.0,
                     help="nominal L2 MB")
    sub.add_argument("--banks", type=int, default=4,
                     help="L2 bank count (a power of two)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {"scale": args.scale, "jobs": args.jobs,
             "cache_dir": args.cache_dir, "timeout": args.timeout,
             "retries": args.retries, "telemetry": args.telemetry,
             "fail_fast": True if args.fail_fast else None}
    try:
        settings = replace(
            Settings.from_env(),
            **{k: v for k, v in flags.items() if v is not None})
        exp = Experiment(settings=settings, use_cache=not args.no_cache)
        if args.handler is None:
            parser.print_help()
            return 0
        return args.handler(args, exp)
    except SweepError as err:
        print(f"{args.prog}: sweep failed — {err}", file=sys.stderr)
        for failure in err.failures:
            print(f"  spec {failure.index} [{failure.kind}] after "
                  f"{failure.attempts} attempt(s): {failure.message}",
                  file=sys.stderr)
        print("completed results are in the result cache (when one is "
              "set); rerun with the same --cache-dir (optionally with "
              "--retries/--timeout) to simulate only the remainder",
              file=sys.stderr)
        _print_cache_stats(exp)
        return 1
    except ValueError as err:
        print(f"{args.prog}: {err}", file=sys.stderr)
        return 2
