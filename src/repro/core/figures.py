"""Figure regeneration: the programmatic API behind every benchmark.

Each ``figure_*`` function reruns one of the paper's experiments against
an :class:`~repro.core.experiment.Experiment` and returns the regenerated
figure as plain text (tables, ASCII series, breakdown bars) including a
``paper vs measured`` claim table.  The pytest benchmarks in
``benchmarks/`` and the command-line runner (``python -m repro``) are thin
wrappers over these functions.

Every grid here flows through ``Experiment.prefetch``/``run_many`` and so
inherits the resilient execution layer: the experiment's
``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_FAIL_FAST`` settings (CLI:
``--timeout/--retries/--fail-fast``) bound how long a figure may stall and
retry transient worker failures, and each finished point lands in the
result cache at once, so an interrupted grid rerun on the same cache
resumes where it stopped — without changing a single printed digit, since
retried or fault-recovered points re-run the same deterministic
simulation (DESIGN.md §6).
"""

from __future__ import annotations

from ..simulator import cacti
from ..simulator.configs import (
    BASELINE_L2_MB,
    FIG6_L2_SIZES_MB,
    fc_cmp,
    fc_smp,
    lc_cmp,
)
from .counters import cpi_stack
from .historic import (
    cache_size_trend,
    growth_factor_per_decade,
    latency_growth_over_decade,
    latency_trend,
)
from .parallel import RunSpec
from .reporting import (
    format_breakdown_table,
    format_series,
    format_table,
    paper_vs_measured,
)
from .sweeps import (
    CONTENTION_THETAS,
    cache_size_sweep,
    client_count_sweep,
    contention_sweep,
    core_count_sweep,
    islands_sweep,
)
from ..simulator.topology import PLACEMENTS
from .taxonomy import Camp, grid, table1
from .validation import OPENPOWER720_DSS_CPI, validate


def table1_text() -> str:
    """Table 1: chip multiprocessor camp characteristics, as text."""
    rows = []
    for traits in table1():
        rows.append([
            traits.camp.value.upper(),
            traits.issue_width,
            traits.execution_order,
            traits.pipeline_depth,
            traits.hardware_threads,
            f"{traits.core_size_ratio:g} x LC size",
        ])
    return format_table(
        ["camp", "issue width", "execution order", "pipeline depth",
         "hardware threads", "core size"],
        rows,
        title="Table 1. Chip multiprocessor camp characteristics.",
    )


def figure1() -> str:
    """Figure 1: historic on-chip cache size and latency trends."""
    size_series = [(float(y), float(kb)) for y, kb in cache_size_trend()]
    lat_series = [(float(y), float(c)) for y, c in latency_trend()]
    model = [
        (mb, float(cacti.l2_hit_latency(mb)))
        for mb in (0.25, 1.0, 2.0, 4.0, 8.0, 16.0, 26.0)
    ]
    claims = paper_vs_measured([
        ("on-chip cache growth", "exponential across generations",
         f"{growth_factor_per_decade():.0f}x per decade (log-linear fit)"),
        ("L2 hit latency growth", "more than 3-fold over a decade "
         "(e.g. 4 cyc PIII -> 14 cyc Power5)",
         f"{latency_growth_over_decade():.1f}x (90s mean -> 2000s mean)"),
        ("largest on-chip caches", "16 MB Xeon 7100, 24 MB Itanium 2",
         f"{max(kb for _, kb in cache_size_trend()) // 1024} MB max in table"),
    ])
    return "\n\n".join([
        format_series("Fig 1(a) on-chip cache (KB) by year",
                      size_series, "year", "KB"),
        format_series("Fig 1(b) L2 hit latency (cycles) by year",
                      lat_series, "year", "cycles"),
        format_series("Cacti model: latency vs capacity (MB)",
                      model, "MB", "cycles"),
        claims,
    ])


CLIENTS_figure2 = (1, 2, 4, 8, 16, 32, 64)


def figure2(exp) -> str:
    """Figure 2: throughput vs concurrent clients (saturation curve)."""
    points = client_count_sweep(exp, "dss", client_counts=CLIENTS_figure2)
    base = points[0].result.ipc
    series = [(p.x, p.result.ipc / base) for p in points]
    peak_x = max(series, key=lambda s: s[1])[0]
    last = series[-1][1]
    peak = max(y for _, y in series)
    claims = paper_vs_measured([
        ("throughput rises with clients, then saturates",
         "saturation once idle contexts are exhausted "
         "(4-core FC: a handful of clients)",
         f"peak at {peak_x:g} clients ({peak:.2f}x single-client)"),
        ("over-saturation", "increasing concurrent requests too far "
         "lowers performance",
         f"at {series[-1][0]:g} clients: {last:.2f}x "
         f"({(last / peak - 1) * 100:+.0f}% vs peak)"),
    ])
    return (
        format_series("Fig 2: DSS throughput vs concurrent clients "
                      "(norm. to 1 client, FC CMP)",
                      series, "clients", "x")
        + "\n\n" + claims
    )


def figure3(exp) -> str:
    """Figure 3: simulator CPI stack vs the published hardware stack."""
    report = validate(exp)
    ours_shares = report.shares(report.ours)
    ref_shares = report.shares(report.reference)
    rows = []
    for key in OPENPOWER720_DSS_CPI:
        rows.append([
            key,
            f"{report.reference[key]:.2f} ({ref_shares[key]:.0%})",
            f"{report.ours[key]:.2f} ({ours_shares[key]:.0%})",
            f"{report.share_deltas[key]:+.1%}",
        ])
    rows.append([
        "total CPI",
        f"{sum(report.reference.values()):.2f}",
        f"{sum(report.ours.values()):.2f}",
        f"{report.total_delta:+.0%}",
    ])
    table = format_table(
        ["component", "OpenPower720 (published)", "this simulator",
         "share delta"],
        rows,
        title="Figure 3. Validation on saturated DSS (Power5-class FC, "
              "2 MB L2).",
    )
    claims = paper_vs_measured([
        ("overall CPI", "simulated within 5% of hardware (absolute "
         "cycles; ours uses a synthetic cost model, compare shares)",
         f"total delta {report.total_delta:+.0%}; max share delta "
         f"{max(abs(d) for d in report.share_deltas.values()):.1%}"),
        ("computation component", "10% higher on hardware (grouping/"
         "cracking overhead)",
         f"ours lower than hw: {report.comp_lower_than_hw}"),
        ("data-stall component", "15% higher in the simulator (no "
         "hardware prefetcher)",
         f"ours higher than hw: {report.dstall_higher_than_hw}"),
    ])
    return table + "\n\n" + claims


def figure4(exp) -> str:
    """Figure 4: LC response time and throughput normalized to FC."""
    fc = fc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale)
    lc = lc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale)
    exp.prefetch([
        RunSpec(config, kind, regime)
        for config in (fc, lc)
        for kind in ("oltp", "dss")
        for regime in ("saturated", "unsaturated")
    ])
    rows = []
    measured = {}
    for kind in ("oltp", "dss"):
        resp = exp.response_ratio(lc, fc, kind)
        tput = exp.throughput_ratio(lc, fc, kind)
        measured[kind] = (resp, tput)
        rows.append([kind.upper(), f"{resp:.2f}", f"{tput:.2f}"])
    table = format_table(
        ["workload", "LC response time (norm. to FC)",
         "LC throughput (norm. to FC)"],
        rows,
        title="Figure 4. LC normalized to FC at the 26 MB baseline.",
    )
    claims = paper_vs_measured([
        ("4a unsat DSS response, LC/FC", "up to 1.70",
         f"{measured['dss'][0]:.2f}"),
        ("4a unsat OLTP response, LC/FC", "up to 1.12",
         f"{measured['oltp'][0]:.2f}"),
        ("4b sat throughput, LC/FC", "~1.70 (both workloads)",
         f"oltp {measured['oltp'][1]:.2f}, dss {measured['dss'][1]:.2f}"),
    ])
    return table + "\n\n" + claims


def _config_for_figure5(camp: Camp, scale: float):
    builder = fc_cmp if camp is Camp.FAT else lc_cmp
    return builder(l2_nominal_mb=BASELINE_L2_MB, scale=scale)


def figure5(exp) -> str:
    """Figure 5: execution-time breakdown for all eight taxonomy cells."""
    bars = []
    stats = {}
    exp.prefetch([
        RunSpec(_config_for_figure5(cell.camp, exp.scale),
                cell.kind.value, cell.regime.value)
        for cell in grid()
    ])
    for cell in grid():
        result = exp.run_cell(cell, lambda camp: _config_for_figure5(camp, exp.scale))
        coarse = result.breakdown.coarse()
        bars.append((cell.label, coarse))
        stats[cell.label] = coarse
    fc_sat_d = [stats[f"FC/{k}/saturated"]["d_stalls"] for k in ("OLTP", "DSS")]
    lc_sat = [stats[f"LC/{k}/saturated"] for k in ("OLTP", "DSS")]
    claims = paper_vs_measured([
        ("FC data stalls (saturated)", "46-64% of execution time",
         f"oltp {fc_sat_d[0]:.0%}, dss {fc_sat_d[1]:.0%}"),
        ("LC saturated computation", "76-80%",
         f"oltp {lc_sat[0]['computation']:.0%}, dss {lc_sat[1]['computation']:.0%}"),
        ("LC saturated data stalls", "at most 13%",
         f"oltp {lc_sat[0]['d_stalls']:.0%}, dss {lc_sat[1]['d_stalls']:.0%}"),
        ("D-stalls vs I-stalls", "data stalls dominate the memory component "
         "in all combinations",
         "d > i in %d/8 cells" % sum(
             1 for s in stats.values() if s["d_stalls"] > s["i_stalls"])),
    ])
    return (
        format_breakdown_table(
            bars, title="Figure 5. Breakdown of execution time (26 MB L2).")
        + "\n\n" + claims
    )


def figure6(exp) -> str:
    """Figure 6: L2 size/latency effects on throughput and CPI stacks."""
    exp.prefetch([
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=size, scale=exp.scale,
                       const_latency=cl), kind)
        for kind in ("oltp", "dss")
        for cl in (None, cacti.CONST_L2_LATENCY)
        for size in FIG6_L2_SIZES_MB
    ])
    parts = []
    series = {}
    for kind in ("oltp", "dss"):
        real = cache_size_sweep(exp, kind)
        const = cache_size_sweep(exp, kind,
                                 const_latency=cacti.CONST_L2_LATENCY)
        series[kind] = {"real": real, "const": const}
        base = real[0].result.ipc
        parts.append(format_series(
            f"Fig 6(a) {kind.upper()}-const: norm. throughput vs L2 MB",
            [(p.x, p.result.ipc / base) for p in const], "MB", "x"))
        parts.append(format_series(
            f"Fig 6(a) {kind.upper()}-real: norm. throughput vs L2 MB",
            [(p.x, p.result.ipc / base) for p in real], "MB", "x"))
        rows = []
        for p in real:
            stack = cpi_stack(p.result)
            bd = p.result.breakdown
            instr = max(1, p.result.retired)
            rows.append([
                f"{p.x:g}",
                f"{sum(stack.values()):.2f}",
                f"{bd.d_stalls / instr:.2f}",
                f"{bd.d_onchip / instr:.2f}",
                f"{bd.i_l2 / instr:.2f}",
                f"{bd.fraction(bd.d_onchip):.0%}",
            ])
        parts.append(format_table(
            ["L2 MB", "CPI", "all D-stall CPI", "L2-hit D CPI",
             "L2-hit I CPI", "L2-hit % of time"],
            rows,
            title=f"Fig 6(b/c) {kind.upper()}: CPI contributions vs L2 size "
                  "(realistic latency)",
        ))
    # Headline numbers.
    measured = {}
    for kind in ("oltp", "dss"):
        real = series[kind]["real"]
        const = series[kind]["const"]
        by_x = {p.x: p for p in real}
        measured[kind] = {
            "const_gain": const[-1].result.ipc / const[0].result.ipc,
            "real_vs_const": const[-1].result.ipc / real[-1].result.ipc,
            "delta_4_to_26": (by_x[26.0].result.ipc - by_x[4.0].result.ipc)
            / by_x[4.0].result.ipc,
            "l2hit_frac_26": by_x[26.0].result.breakdown.fraction(
                by_x[26.0].result.breakdown.d_onchip),
            "l2hit_growth": (
                (by_x[26.0].result.breakdown.d_onchip
                 / max(1, by_x[26.0].result.retired))
                / max(1e-9, by_x[1.0].result.breakdown.d_onchip
                      / max(1, by_x[1.0].result.retired))
            ),
        }
    claims = paper_vs_measured([
        ("const-latency speedup 1->26MB", "up to ~2x",
         "oltp %.2fx, dss %.2fx" % (measured["oltp"]["const_gain"],
                                    measured["dss"]["const_gain"])),
        ("high latency erodes benefit at 26MB", "2.2x OLTP / 2x DSS",
         "oltp %.2fx, dss %.2fx" % (measured["oltp"]["real_vs_const"],
                                    measured["dss"]["real_vs_const"])),
        ("throughput 4MB->26MB (real latency)", "reduced by up to 30%",
         "oltp %+.0f%%, dss %+.0f%%" % (
             100 * measured["oltp"]["delta_4_to_26"],
             100 * measured["dss"]["delta_4_to_26"])),
        ("L2-hit stalls at 26MB", "up to 35% of execution time",
         "oltp %.0f%%, dss %.0f%%" % (
             100 * measured["oltp"]["l2hit_frac_26"],
             100 * measured["dss"]["l2hit_frac_26"])),
        ("L2-hit stall time growth 1->26MB", "12-fold",
         "oltp %.1fx, dss %.1fx" % (measured["oltp"]["l2hit_growth"],
                                    measured["dss"]["l2hit_growth"])),
    ])
    return "\n\n".join(parts + [claims])


def _views_figure7(result):
    bd = result.breakdown
    return bd.l2_view(), result.cpi


def figure7(exp) -> str:
    """Figure 7: SMP (private MESI L2s) vs CMP (shared L2) CPI."""
    smp = fc_smp(n_nodes=4, private_l2_nominal_mb=4.0, scale=exp.scale)
    cmp_ = fc_cmp(n_cores=4, l2_nominal_mb=16.0, scale=exp.scale)
    exp.prefetch([
        RunSpec(config, kind)
        for config in (smp, cmp_) for kind in ("oltp", "dss")
    ])
    bars = []
    rows = []
    l2hit_ratio = {}
    coh_converted = {}
    for kind in ("oltp", "dss"):
        r_smp = exp.run(smp, kind)
        r_cmp = exp.run(cmp_, kind)
        for label, res in ((f"SMP/{kind.upper()}", r_smp),
                           (f"CMP/{kind.upper()}", r_cmp)):
            view, cpi = _views_figure7(res)
            bars.append((f"{label}  (CPI {cpi:.2f})", view))
        instr_smp = max(1, r_smp.retired)
        instr_cmp = max(1, r_cmp.retired)
        smp_l2hit_cpi = r_smp.breakdown.d_onchip / instr_smp
        cmp_l2hit_cpi = r_cmp.breakdown.d_onchip / instr_cmp
        l2hit_ratio[kind] = cmp_l2hit_cpi / max(1e-9, smp_l2hit_cpi)
        coh_converted[kind] = (
            r_smp.hier_stats.coherence_misses,
            r_cmp.hier_stats.data_level_counts[4],  # COH on CMP: none
        )
        rows.append([
            kind.upper(),
            f"{r_smp.cpi:.2f}",
            f"{r_cmp.cpi:.2f}",
            f"{r_smp.cpi / r_cmp.cpi:.2f}x",
            f"{l2hit_ratio[kind]:.1f}x",
            r_smp.hier_stats.coherence_misses,
        ])
    table = format_table(
        ["workload", "SMP CPI", "CMP CPI", "SMP/CMP", "L2-hit CPI CMP/SMP",
         "SMP coherence misses"],
        rows,
        title="Figure 7. 4-node SMP (4MB private L2 each) vs 4-core CMP "
              "(16MB shared L2).",
    )
    claims = paper_vs_measured([
        ("CMP outperforms SMP", "OLTP CPI 1.40 -> 1.01, DSS 1.95 -> 1.46 "
         "(~1.3-1.4x)", " / ".join(r[0] + " " + r[3] for r in rows)),
        ("L2-hit stall CPI component", "increases ~7x on the CMP",
         "oltp %.1fx, dss %.1fx" % (l2hit_ratio["oltp"],
                                    l2hit_ratio["dss"])),
        ("coherence misses", "converted into shared-L2 hits and "
         "L1-to-L1 transfers",
         "CMP coherence misses = 0 in both workloads"),
    ])
    return (format_breakdown_table(
        bars, title="Normalized CPI breakdowns (Fig 7 grouping)")
        + "\n\n" + table + "\n\n" + claims)


def figure8(exp) -> str:
    """Figure 8: throughput scaling with core count at a fixed L2."""
    parts = []
    measured = {}
    for kind in ("oltp", "dss"):
        points = core_count_sweep(exp, kind)
        base = points[0].result
        series = [
            (p.x, p.result.ipc / base.ipc * points[0].x) for p in points
        ]
        parts.append(format_series(
            f"Fig 8 {kind.upper()}: normalized throughput vs cores "
            "(linear = y == x)",
            series, "cores", "norm"))
        rows = []
        for p, (x, y) in zip(points, series):
            linear = x / points[0].x * points[0].x
            rows.append([
                int(p.x),
                f"{p.result.ipc:.2f}",
                f"{y:.2f}",
                f"{y / linear:.0%}",
                f"{p.result.l2_miss_rate:.3f}",
                int(p.result.hier_stats.l2_queue_delay),
            ])
        parts.append(format_table(
            ["cores", "IPC", "norm. tput", "% of linear", "L2 miss rate",
             "L2 queue cycles"],
            rows,
            title=f"{kind.upper()} scaling detail",
        ))
        by_x = {p.x: p.result for p in points}
        measured[kind] = {
            "at8": (by_x[8.0].ipc / base.ipc) / 2.0,
            "at16": (by_x[16.0].ipc / base.ipc) / 4.0,
            "miss_drop": by_x[16.0].l2_miss_rate <= by_x[4.0].l2_miss_rate,
            "queue_growth": (by_x[16.0].hier_stats.l2_queue_delay
                             / max(1, by_x[4.0].hier_stats.l2_queue_delay)),
        }
    claims = paper_vs_measured([
        ("DSS at 8 cores", "~9% superlinear",
         f"{(measured['dss']['at8'] - 1) * 100:+.0f}% vs linear"),
        ("OLTP at 16 cores", "~74% of linear",
         f"{measured['oltp']['at16']:.0%} of linear"),
        ("L2 miss rate as cores grow", "keeps dropping (more sharing)",
         "drops: oltp %s, dss %s" % (measured["oltp"]["miss_drop"],
                                     measured["dss"]["miss_drop"])),
        ("pressure is queueing, not misses", "bursty misses queue at "
         "shared-L2 ports",
         "queue cycles grow %.1fx (oltp) / %.1fx (dss) from 4 to 16 cores"
         % (measured["oltp"]["queue_growth"],
            measured["dss"]["queue_growth"])),
    ])
    return "\n\n".join(parts + [claims])


def contention(exp, thetas: tuple[float, ...] = CONTENTION_THETAS,
               cc_modes: tuple[str, ...] = ("2pl", "partitioned"),
               hot_warehouses: int | None = None,
               cross_rate: float | None = None,
               n_clients: int | None = None) -> str:
    """Contention study: where time goes as skew rises, per CC camp.

    The dimension the paper never measured (it fixed uniform TPC-C
    traffic): as Zipfian skew concentrates the reference stream, the
    lock-based camp loses time to lock waits and aborted-attempt rework
    while the partitioned camp trades them for cross-partition idling —
    and the cache-side components shift underneath both.  One table per
    CC mode, rows over theta, showing the executor's accounting next to
    the attributed busy-time view.
    """
    points = contention_sweep(
        exp, thetas=thetas, cc_modes=cc_modes,
        hot_warehouses=hot_warehouses, cross_rate=cross_rate,
        n_clients=n_clients)
    parts = []
    for cc_mode in cc_modes:
        rows = []
        for p in points:
            if p.cc_mode != cc_mode:
                continue
            view = p.result.breakdown.contention_view()
            rows.append([
                f"{p.theta:g}",
                f"{p.contention.abort_rate:.3f}",
                f"{view['lock_wait']:.0%}",
                f"{view['d_stalls']:.0%}",
                f"{view['coherence']:.0%}",
                f"{view['computation']:.0%}",
                f"{p.result.ipc:.2f}",
            ])
        parts.append(format_table(
            ["theta", "abort rate", "lock-wait", "D-stalls", "coherence",
             "comp", "IPC"],
            rows,
            title=f"Contention attribution — cc_mode={cc_mode} "
                  "(busy-time shares)",
        ))
    trends = []
    for cc_mode in cc_modes:
        series = [p for p in points if p.cc_mode == cc_mode]
        lw = [p.result.breakdown.contention_view()["lock_wait"]
              for p in series]
        ab = [p.contention.abort_rate for p in series]
        trends.append(
            f"{cc_mode}: lock-wait {lw[0]:.0%} -> {lw[-1]:.0%}, "
            f"abort rate {ab[0]:.3f} -> {ab[-1]:.3f} "
            f"across theta {series[0].theta:g}..{series[-1].theta:g}")
    return "\n\n".join(parts + ["\n".join(trends)])


def islands(exp, sockets: int = 2,
            placements: tuple[str, ...] = PLACEMENTS,
            kinds: tuple[str, ...] = ("oltp", "dss"),
            remote_l2_latency: float = 3.0,
            remote_mem_latency: float = 1.5) -> str:
    """Hardware-islands study: what each deployment placement costs.

    Another dimension the paper never measured (it assumed one chip):
    on a multi-socket machine whose cross-socket L2/memory paths cost a
    multiple of the local ones, the placement of clients and data
    decides how much of the single-chip throughput survives.  One table
    per workload kind, rows over (camp, placement), showing throughput
    retained against the same chip at one socket and the remote-traffic
    fractions each placement paid (Porobic et al., PAPERS.md).
    """
    points = islands_sweep(
        exp, sockets=sockets, placements=placements, kinds=kinds,
        remote_l2_latency=remote_l2_latency,
        remote_mem_latency=remote_mem_latency)
    parts = []
    for kind in kinds:
        rows = []
        for p in points:
            if p.kind != kind:
                continue
            hs = p.result.hier_stats
            rows.append([
                p.camp.upper(),
                p.placement,
                f"{p.result.ipc:.2f}",
                f"{p.baseline.ipc:.2f}",
                f"{p.rel_ipc:.0%}",
                f"{p.remote_fraction:.0%}",
                f"{hs.remote_l1x}",
            ])
        parts.append(format_table(
            ["camp", "placement", "IPC", "1s IPC", "retained", "remote",
             "remote L1X"],
            rows,
            title=f"Hardware islands — {kind} at {sockets} sockets "
                  f"(remote L2 x{remote_l2_latency:g}, "
                  f"mem x{remote_mem_latency:g})",
        ))
    trends = []
    for kind in kinds:
        series = [p for p in points if p.kind == kind]
        if not series:
            continue
        best = max(series, key=lambda p: p.rel_ipc)
        worst = min(series, key=lambda p: p.rel_ipc)
        trends.append(
            f"{kind}: best placement {best.placement} ({best.camp}) "
            f"retains {best.rel_ipc:.0%}; worst {worst.placement} "
            f"({worst.camp}) retains {worst.rel_ipc:.0%}")
    return "\n\n".join(parts + ["\n".join(trends)])
