"""The figure and claim registry: every figure and paper claim, measured once.

:data:`GROUPS` holds one :class:`Group` per table, figure or ablation of
the paper, keyed by name, in paper order.  A group has its EXPERIMENTS.md
title, one ``measure(exp) -> dict`` that returns every number its figure
shows and its claims check (through the memoized
:class:`~repro.core.experiment.Experiment` and the sweeps), an optional
``render(values) -> str`` that formats the figure from that dict, and the
one-line summary ``repro list`` prints.  ``table1`` has no claims; the
ablation groups have no figure.

:data:`CLAIMS` holds one :class:`Claim` per row of EXPERIMENTS.md's
tables, in paper order.  A claim names its group, the paper's value, a
format for the measured column over its group's values, and its check:

- ``holds`` — the paper's direction or ordering (who wins, what grows);
- ``near`` — the paper's magnitude within :data:`REL`, or None for a
  purely directional claim.

A claim whose direction fails is a ``miss``; one whose direction holds
but whose magnitude does not is ``direction``; anything else is a
``match``.  ``expected`` records the verdict the study scale (0.25)
gives today, with its diagnosis in ``note``.

:func:`figure` measures a group once and renders it, ending in its
"paper vs measured" block (:func:`paper_vs_measured`) over the same
values, so a figure's text and its claims' verdicts cannot disagree;
``repro table1``/``figN``/``all`` print it.  :func:`claim_rows` turns a
run into tidy rows for ``repro claims`` and EXPERIMENTS.md's tables
(:func:`format_markdown`).  ``repro claims`` exits 1 when a verdict
falls below its ``expected`` one (:func:`regressions`), so a change that
flips a paper direction fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from ..db import Database, PageLayout, Schema
from ..db.exec import AggSpec, Filter, HashAggregate, SeqScan, StreamAggregate
from ..db.types import char, float64, int64
from ..simulator import cacti
from ..simulator.area import area_report, equal_area_lean
from ..simulator.configs import (
    BASELINE_L2_MB,
    FIG6_L2_SIZES_MB,
    fc_cmp,
    fc_smp,
    lc_cmp,
)
from ..simulator.machine import Machine
from ..simulator.trace import Workload
from ..staged import Router
from ..workloads.driver import dss_parallel_query
from ..workloads.tpch import (
    DSS_BRANCH_MPKI,
    DSS_ILP,
    DSS_ILP_INORDER,
    TpchDatabase,
)
from .counters import cpi_stack
from .experiment import Experiment
from .historic import (
    PROCESSORS,
    cache_size_trend,
    growth_factor_per_decade,
    latency_growth_over_decade,
    latency_trend,
)
from .parallel import RunSpec
from .reporting import format_breakdown_table, format_series, format_table
from .sweeps import (
    cache_size_sweep,
    client_count_sweep,
    contention_sweep,
    core_count_sweep,
)
from .taxonomy import Camp, grid, table1
from .validation import OPENPOWER720_DSS_CPI, validate

#: Verdicts, best first.
VERDICTS = ("match", "direction", "miss")

#: Relative tolerance of a magnitude check: a measured value within 15%
#: of the paper's number (or of the ends of its range) matches it.
REL = 0.15

#: The two workload kinds, in the order every figure shows them.
_KINDS = ("oltp", "dss")


def _near(value: float, target: float) -> bool:
    return abs(value - target) <= REL * abs(target)


def _in_range(value: float, lo: float, hi: float) -> bool:
    return lo * (1 - REL) <= value <= hi * (1 + REL)


@dataclass(frozen=True)
class Group:
    """One table, figure or ablation: how it is measured and shown.

    Attributes:
        title: The heading of its EXPERIMENTS.md table.
        measure: ``measure(exp) -> dict`` of every number the figure
            shows and its claims check, called once per figure or
            :func:`claim_rows` run.
        render: ``render(values) -> str``, the figure as text; None for
            an ablation, which only its claims report.
        summary: The figure target's one-line description
            (``repro list``).
    """

    title: str
    measure: Callable[[Experiment], dict]
    render: Callable[[dict], str] | None = None
    summary: str = ""


@dataclass(frozen=True)
class Claim:
    """One paper claim and how this reproduction checks it.

    Attributes:
        group: Key of :data:`GROUPS` (the figure or section) whose
            measured values the claim reads.
        label: The claim, as its table row names it.
        paper: The paper's value, as text.
        show: ``str.format`` template over those values (the measured
            column).
        holds: The paper's direction, over the values as attributes.
        near: The paper's magnitude within :data:`REL`; None when the
            claim is directional only.
        expected: The verdict at the study scale, one of :data:`VERDICTS`.
        note: Diagnosis of a gap, or context for the measured value.
    """

    group: str
    label: str
    paper: str
    show: str
    holds: Callable[[SimpleNamespace], bool]
    near: Callable[[SimpleNamespace], bool] | None = None
    expected: str = "match"
    note: str = ""

    def verdict(self, values: dict) -> str:
        """``match``, ``direction`` or ``miss`` for measured ``values``."""
        m = SimpleNamespace(**values)
        if not self.holds(m):
            return "miss"
        return "match" if self.near is None or self.near(m) else "direction"


@dataclass(frozen=True)
class ClaimRow:
    """One claim's outcome: the tidy row every renderer reads."""

    group: str
    claim: str
    paper: str
    measured: str
    verdict: str
    expected: str
    note: str


def _per_instr(result, cycles: float) -> float:
    return cycles / max(1, result.retired)


# ---------------------------------------------------------------------- #
# Measurements and figures, one per group                                 #
# ---------------------------------------------------------------------- #


def _table1(_exp) -> dict:
    return {"traits": table1()}


def _table1_text(values: dict) -> str:
    rows = [[traits.camp.value.upper(), traits.issue_width,
             traits.execution_order, traits.pipeline_depth,
             traits.hardware_threads, f"{traits.core_size_ratio:g} x LC size"]
            for traits in values["traits"]]
    return format_table(
        ["camp", "issue width", "execution order", "pipeline depth",
         "hardware threads", "core size"],
        rows,
        title="Table 1. Chip multiprocessor camp characteristics.",
    )


def _fig1(_exp) -> dict:
    names = {p.name for p in PROCESSORS}
    sizes = cache_size_trend()
    return {
        "sizes": [(float(y), float(kb)) for y, kb in sizes],
        "latencies": [(float(y), float(c)) for y, c in latency_trend()],
        "cacti": [(mb, float(cacti.l2_hit_latency(mb)))
                  for mb in (0.25, 1.0, 2.0, 4.0, 8.0, 16.0, 26.0)],
        "growth": growth_factor_per_decade(),
        "n": len(sizes),
        "lat": latency_growth_over_decade(),
        "anchors": {"Intel Pentium III", "IBM Power5"} <= names,
        "largest": {"Dual-Core Intel Xeon 7100",
                    "Dual-Core Intel Itanium 2 (Montecito)"} <= names,
        "max_mb": max(kb for _, kb in sizes) // 1024,
    }


def _fig1_text(values: dict) -> str:
    return "\n\n".join([
        format_series("Fig 1(a) on-chip cache (KB) by year",
                      values["sizes"], "year", "KB"),
        format_series("Fig 1(b) L2 hit latency (cycles) by year",
                      values["latencies"], "year", "cycles"),
        format_series("Cacti model: latency vs capacity (MB)",
                      values["cacti"], "MB", "cycles"),
    ])


#: Client counts of the Fig. 2 saturation curve.
_FIG2_CLIENTS = (1, 2, 4, 8, 16, 32, 64)


def _fig2(exp) -> dict:
    points = client_count_sweep(exp, "dss", client_counts=_FIG2_CLIENTS)
    ipc = [p.result.ipc for p in points]
    peak = max(range(len(ipc)), key=ipc.__getitem__)
    return {"series": [(p.x, p.result.ipc / ipc[0]) for p in points],
            "peak_x": points[peak].x, "peak": ipc[peak] / ipc[0],
            "last_x": points[-1].x, "drop": ipc[-1] / ipc[peak] - 1,
            "early": ipc[1] / ipc[0], "late": ipc[-1] / ipc[-2]}


def _fig2_text(values: dict) -> str:
    return format_series("Fig 2: DSS throughput vs concurrent clients "
                         "(norm. to 1 client, FC CMP)",
                         values["series"], "clients", "x")


def _fig3(exp) -> dict:
    report = validate(exp)
    return {"report": report,
            "total": report.total_delta,
            "max_share": max(abs(d) for d in report.share_deltas.values()),
            "within25": report.within(0.25),
            "comp": report.share_deltas["computation"],
            "comp_lower": report.comp_lower_than_hw,
            "dstall": report.share_deltas["d_stalls"],
            "dstall_higher": report.dstall_higher_than_hw}


def _fig3_text(values: dict) -> str:
    report = values["report"]
    ours_shares = report.shares(report.ours)
    ref_shares = report.shares(report.reference)
    rows = [[key,
             f"{report.reference[key]:.2f} ({ref_shares[key]:.0%})",
             f"{report.ours[key]:.2f} ({ours_shares[key]:.0%})",
             f"{report.share_deltas[key]:+.1%}"]
            for key in OPENPOWER720_DSS_CPI]
    rows.append([
        "total CPI",
        f"{sum(report.reference.values()):.2f}",
        f"{sum(report.ours.values()):.2f}",
        f"{report.total_delta:+.0%}",
    ])
    return format_table(
        ["component", "OpenPower720 (published)", "this simulator",
         "share delta"],
        rows,
        title="Figure 3. Validation on saturated DSS (Power5-class FC, "
              "2 MB L2).",
    )


def _fig4(exp) -> dict:
    fc = fc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale)
    lc = lc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale)
    exp.prefetch([RunSpec(config, kind, regime)
                  for config in (fc, lc) for kind in _KINDS
                  for regime in ("saturated", "unsaturated")])
    return {f"{metric}_{kind}": ratio(lc, fc, kind)
            for kind in _KINDS
            for metric, ratio in (("resp", exp.response_ratio),
                                  ("tput", exp.throughput_ratio))}


def _fig4_text(values: dict) -> str:
    return format_table(
        ["workload", "LC response time (norm. to FC)",
         "LC throughput (norm. to FC)"],
        [[kind.upper(), f"{values['resp_' + kind]:.2f}",
          f"{values['tput_' + kind]:.2f}"] for kind in _KINDS],
        title="Figure 4. LC normalized to FC at the 26 MB baseline.",
    )


def _fig5_config(camp: Camp, scale: float):
    """The Fig. 4/5 baseline machine of one camp (26 MB shared L2)."""
    builder = fc_cmp if camp is Camp.FAT else lc_cmp
    return builder(l2_nominal_mb=BASELINE_L2_MB, scale=scale)


def _fig5(exp) -> dict:
    exp.prefetch([RunSpec(_fig5_config(cell.camp, exp.scale),
                          cell.kind.value, cell.regime.value)
                  for cell in grid()])
    cells = {cell.label: exp.run_cell(
        cell, lambda camp: _fig5_config(camp, exp.scale)).breakdown.coarse()
        for cell in grid()}
    values = {f"{camp.lower()}_{part}_{kind.lower()}":
              cells[f"{camp}/{kind}/saturated"][part]
              for camp in ("FC", "LC") for kind in ("OLTP", "DSS")
              for part in ("d_stalls", "computation")}
    values["cells"] = cells
    values["d_over_i"] = sum(c["d_stalls"] >= c["i_stalls"]
                             for c in cells.values())
    hiding = {label for label in cells if label.startswith("LC/")
              and label.endswith("/saturated")}
    values["hiding_min"] = min(cells[label]["computation"]
                               for label in hiding)
    values["other_max"], values["other"] = max(
        (c["computation"], label) for label, c in cells.items()
        if label not in hiding)
    return values


def _fig5_text(values: dict) -> str:
    return format_breakdown_table(
        list(values["cells"].items()),
        title="Figure 5. Breakdown of execution time (26 MB L2).")


def _fig6(exp) -> dict:
    exp.prefetch([
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=size, scale=exp.scale,
                       const_latency=cl), kind)
        for kind in _KINDS
        for cl in (None, cacti.CONST_L2_LATENCY)
        for size in FIG6_L2_SIZES_MB
    ])
    values = {}
    for kind in _KINDS:
        points = cache_size_sweep(exp, kind)
        const_points = cache_size_sweep(
            exp, kind, const_latency=cacti.CONST_L2_LATENCY)
        real = {p.x: p.result for p in points}
        const = {p.x: p.result for p in const_points}
        l2hit = {mb: _per_instr(r, r.breakdown.d_onchip)
                 for mb, r in real.items()}
        values.update({
            f"real_{kind}": points,
            f"const_{kind}": const_points,
            f"gain_{kind}": const[26.0].ipc / const[1.0].ipc,
            f"erosion_{kind}": const[26.0].ipc / real[26.0].ipc,
            f"erodes_{kind}": all(const[mb].ipc > real[mb].ipc
                                  for mb in real if mb >= 8.0),
            f"d4_{kind}": real[26.0].ipc / real[4.0].ipc - 1,
            f"d8_{kind}": real[26.0].ipc / real[8.0].ipc - 1,
            f"falls_{kind}": real[26.0].ipc < max(r.ipc for r in
                                                   real.values()),
            f"l2hit_{kind}": real[26.0].breakdown.fraction(
                real[26.0].breakdown.d_onchip),
            f"growth_{kind}": l2hit[26.0] / max(1e-9, l2hit[1.0]),
        })
    return values


def _fig6_text(values: dict) -> str:
    parts = []
    for kind in _KINDS:
        real = values[f"real_{kind}"]
        base = real[0].result.ipc
        for curve in ("const", "real"):
            parts.append(format_series(
                f"Fig 6(a) {kind.upper()}-{curve}: norm. throughput vs L2 MB",
                [(p.x, p.result.ipc / base)
                 for p in values[f"{curve}_{kind}"]], "MB", "x"))
        rows = []
        for p in real:
            bd = p.result.breakdown
            instr = max(1, p.result.retired)
            rows.append([
                f"{p.x:g}",
                f"{sum(cpi_stack(p.result).values()):.2f}",
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
    return "\n\n".join(parts)


def _fig7(exp) -> dict:
    smp = fc_smp(n_nodes=4, private_l2_nominal_mb=4.0, scale=exp.scale)
    cmp_ = fc_cmp(n_cores=4, l2_nominal_mb=16.0, scale=exp.scale)
    exp.prefetch([RunSpec(config, kind) for config in (smp, cmp_)
                  for kind in _KINDS])
    values = {}
    for kind in _KINDS:
        r_smp, r_cmp = exp.run(smp, kind), exp.run(cmp_, kind)
        values.update({
            f"smp_{kind}": r_smp,
            f"cmp_{kind}": r_cmp,
            f"speedup_{kind}": r_smp.cpi / r_cmp.cpi,
            f"l2hit_{kind}": _per_instr(r_cmp, r_cmp.breakdown.d_onchip)
            / max(1e-9, _per_instr(r_smp, r_smp.breakdown.d_onchip)),
            f"coh_smp_{kind}": r_smp.hier_stats.coherence_misses,
            f"coh_cmp_{kind}": r_cmp.hier_stats.coherence_misses,
        })
    return values


def _fig7_text(values: dict) -> str:
    bars, rows = [], []
    for kind in _KINDS:
        for machine in ("smp", "cmp"):
            result = values[f"{machine}_{kind}"]
            bars.append((f"{machine.upper()}/{kind.upper()}  "
                         f"(CPI {result.cpi:.2f})",
                         result.breakdown.l2_view()))
        rows.append([
            kind.upper(),
            f"{values['smp_' + kind].cpi:.2f}",
            f"{values['cmp_' + kind].cpi:.2f}",
            f"{values['speedup_' + kind]:.2f}x",
            f"{values['l2hit_' + kind]:.1f}x",
            values["coh_smp_" + kind],
        ])
    table = format_table(
        ["workload", "SMP CPI", "CMP CPI", "SMP/CMP", "L2-hit CPI CMP/SMP",
         "SMP coherence misses"],
        rows,
        title="Figure 7. 4-node SMP (4MB private L2 each) vs 4-core CMP "
              "(16MB shared L2).",
    )
    return (format_breakdown_table(
        bars, title="Normalized CPI breakdowns (Fig 7 grouping)")
        + "\n\n" + table)


def _fig8(exp) -> dict:
    values = {}
    for kind in _KINDS:
        points = core_count_sweep(exp, kind)
        by_x = {p.x: p.result for p in points}
        base = by_x[4.0]
        values.update({
            f"points_{kind}": points,
            f"super8_{kind}": by_x[8.0].ipc / base.ipc / 2.0 - 1,
            f"at16_{kind}": by_x[16.0].ipc / base.ipc / 4.0,
            f"miss4_{kind}": base.l2_miss_rate,
            f"miss16_{kind}": by_x[16.0].l2_miss_rate,
            f"grows_{kind}": by_x[16.0].ipc > base.ipc,
            f"queue_{kind}": by_x[16.0].hier_stats.l2_queue_delay
            / max(1, base.hier_stats.l2_queue_delay),
            f"queue_up_{kind}": by_x[16.0].hier_stats.l2_queue_delay
            >= base.hier_stats.l2_queue_delay,
        })
    return values


def _fig8_text(values: dict) -> str:
    parts = []
    for kind in _KINDS:
        points = values[f"points_{kind}"]
        first = points[0]
        # Normalized so that linear scaling reads y == x.
        series = [(p.x, p.result.ipc / first.result.ipc * first.x)
                  for p in points]
        parts.append(format_series(
            f"Fig 8 {kind.upper()}: normalized throughput vs cores "
            "(linear = y == x)",
            series, "cores", "norm"))
        parts.append(format_table(
            ["cores", "IPC", "norm. tput", "% of linear", "L2 miss rate",
             "L2 queue cycles"],
            [[int(p.x), f"{p.result.ipc:.2f}", f"{y:.2f}", f"{y / x:.0%}",
              f"{p.result.l2_miss_rate:.3f}",
              int(p.result.hier_stats.l2_queue_delay)]
             for p, (x, y) in zip(points, series)],
            title=f"{kind.upper()} scaling detail",
        ))
    return "\n\n".join(parts)


def _equal_area(exp) -> dict:
    fc = fc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale)
    lc4 = lc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale)
    lc_area = equal_area_lean(fc, exp.scale)
    exp.prefetch([RunSpec(config, kind) for kind in _KINDS
                  for config in (fc, lc4, lc_area)])
    values = {"cores": lc_area.hierarchy.n_cores,
              "fc_mm2": area_report(fc).core_mm2,
              "lc_mm2": area_report(lc_area).core_mm2}
    for kind in _KINDS:
        ipc_fc = exp.run(fc, kind).ipc
        values[f"lc4_{kind}"] = exp.run(lc4, kind).ipc / ipc_fc
        values[f"lc_area_{kind}"] = exp.run(lc_area, kind).ipc / ipc_fc
    return values


def _baseline_variant(exp, **knobs):
    return fc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=exp.scale, **knobs)


def _prefetcher(exp) -> dict:
    exp.prefetch([RunSpec(_baseline_variant(exp, stride_prefetch=pf), kind)
                  for kind in _KINDS for pf in (False, True)])
    return {kind: exp.run(_baseline_variant(exp, stride_prefetch=True),
                          kind).ipc
            / exp.run(_baseline_variant(exp), kind).ipc - 1
            for kind in _KINDS}


def _stream_buffers(exp) -> dict:
    exp.prefetch([RunSpec(_baseline_variant(exp, stream_buffers=sb), kind)
                  for kind in _KINDS for sb in (True, False)])
    values = {}
    for kind in _KINDS:
        on = exp.run(_baseline_variant(exp), kind)
        off = exp.run(_baseline_variant(exp, stream_buffers=False), kind)
        values.update({
            f"on_{kind}": on.breakdown.fraction(on.breakdown.i_stalls),
            f"off_{kind}": off.breakdown.fraction(off.breakdown.i_stalls),
            f"ipc_{kind}": on.ipc / off.ipc - 1,
            f"d_{kind}": on.breakdown.fraction(on.breakdown.d_stalls),
        })
    return values


def _l2_design(exp) -> dict:
    one, eight = (fc_cmp(n_cores=16, l2_nominal_mb=16.0, scale=exp.scale,
                         l2_banks=banks, l2_occupancy=occupancy)
                  for banks, occupancy in ((1, 4), (8, 1)))
    r_one, r_eight = exp.run_many([RunSpec(one, "oltp"),
                                   RunSpec(eight, "oltp")])
    return {"queue1": r_one.hier_stats.l2_queue_delay,
            "queue8": r_eight.hier_stats.l2_queue_delay,
            "queue": r_one.hier_stats.l2_queue_delay
            / max(1, r_eight.hier_stats.l2_queue_delay),
            "gain": r_eight.ipc / r_one.ipc - 1}


#: Staged Q1 pipeline: rows scanned, the filter's cutoff, and the
#: throughput window each execution model runs for.
STAGED_ROWS, STAGED_CUTOFF, STAGED_WINDOW = 6000, 1800, 250_000


def _staged(exp) -> dict:
    """Busy core-cycles per query of a Q1 pipeline run three ways: the
    iterator model, staged with producer and consumer on one core
    (cohort), and staged with the consumer on another core (spread).
    A query needs every stage, so queries completed is the slowest
    participating context's fractional trace passes."""
    tpch = TpchDatabase(scale=exp.scale, seed=11)

    def session(name):
        return tpch.db.session(name, ilp=DSS_ILP, branch_mpki=DSS_BRANCH_MPKI,
                               ilp_inorder=DSS_ILP_INORDER)

    sess = session("iter")
    scan = SeqScan(sess.ctx, tpch.lineitem, start=0, stop=STAGED_ROWS)
    filt = Filter(sess.ctx, scan, lambda r: r[9] <= STAGED_CUTOFF)
    HashAggregate(sess.ctx, filt, lambda r: (r[7], r[8]),
                  [AggSpec("sum", lambda r: r[4] * (1 - r[5]), "s")]
                  ).execute()
    models = {"iterator": [sess.finish()]}
    for label, spread in (("cohort", False), ("spread", True)):
        models[label] = Router(tpch.db).q1_pipeline(
            tpch, session(f"p-{label}"),
            session(f"c-{label}") if spread else None, 0, STAGED_ROWS,
            cutoff=STAGED_CUTOFF).traces
    values = {}
    for label, traces in models.items():
        result = Machine(fc_cmp(l2_nominal_mb=26.0, scale=exp.scale)).run(
            Workload(f"staged-{label}", traces, kind="dss",
                     saturated=False),
            mode="throughput", measure_cycles=STAGED_WINDOW,
            warm_fraction=0.5)
        queries = max(1e-6, min(result.extras["context_progress"]))
        values[label] = sum(b.busy for b in result.per_core) / queries
        values[f"onchip_{label}"] = result.breakdown.fraction(
            result.breakdown.d_onchip)
    values["penalty"] = values["spread"] / values["cohort"] - 1
    values["cheaper"] = values["iterator"] / values["cohort"] - 1
    return values


#: Partition counts per camp, capped at the camp's hardware contexts.
PARTITIONS = {"fc": (1, 4), "lc": (1, 4, 16)}


def _parallelism(exp) -> dict:
    response = {}
    for camp, builder in (("fc", fc_cmp), ("lc", lc_cmp)):
        for n in PARTITIONS[camp]:
            wl = dss_parallel_query(scale=exp.scale, n_partitions=n)
            machine = Machine(builder(l2_nominal_mb=26.0, scale=exp.scale))
            response[camp, n] = machine.run(
                wl, mode="response", warm_fraction=0.3).response_cycles
    return {f"{camp}{n}": response[camp, 1] / response[camp, n]
            for camp, n in response if n > 1}


#: The PAX ablation's table: rows, and the columns the query projects.
PAX_ROWS = 24_000
PAX_PROJECTED = ["l_extendedprice", "l_discount"]


def _pax_trace(layout, name: str):
    """A narrow-projection revenue aggregate over one lineitem-like
    table in ``layout``; returns (trace, answer)."""
    def row(rid: int) -> tuple:
        m = (rid * 2654435761) & 0x7FFF_FFFF
        return (rid, m % 5000, 1 + m % 50, 900.0 + (m % 9999) / 10.0,
                (m % 11) / 100.0, (m % 9) / 100.0, "pad")

    db = Database(f"paxdb-{name}")
    heap = db.catalog.create_table(
        Schema("lineitem", [
            int64("l_orderkey"), int64("l_partkey"), int64("l_quantity"),
            float64("l_extendedprice"), float64("l_discount"),
            float64("l_tax"), char("l_pad", 48)]),
        layout=layout, n_virtual_rows=PAX_ROWS, row_source=row)
    sess = db.session(name, ilp=2.2, branch_mpki=3.5, ilp_inorder=1.6)
    scan = SeqScan(sess.ctx, heap, columns=PAX_PROJECTED)
    answer = StreamAggregate(sess.ctx, scan, [
        AggSpec("sum", lambda r: r[3] * r[4], "revenue"),
        AggSpec("count"),
    ]).execute()
    return sess.finish(), answer


def _pax(exp) -> dict:
    values, answers = {}, []
    for layout, name in ((PageLayout.NSM, "nsm"), (PageLayout.PAX, "pax")):
        trace, answer = _pax_trace(layout, name)
        answers.append(answer)
        result = Machine(fc_cmp(l2_nominal_mb=4.0, scale=exp.scale)).run(
            Workload(f"pax-{name}", [trace], kind="dss", saturated=False),
            mode="response", warm_fraction=0.3)
        values[f"lines_{name}"] = trace.distinct_lines()
        values[f"resp_{name}"] = result.response_cycles
        values[f"offchip_{name}"] = result.hier_stats.data_level_counts[3]
    values["same_answer"] = answers[0] == answers[1]
    values["speedup"] = values["resp_nsm"] / values["resp_pax"]
    return values


#: L1D capacities of the Section 6.2 ablation, smallest and largest.
L1D_KB = (8, 128)


def _l1d(exp) -> dict:
    exp.prefetch([RunSpec(_baseline_variant(exp, l1d_kb=kb), kind)
                  for kind in _KINDS for kb in L1D_KB])
    values = {}
    for kind in _KINDS:
        small, large = (exp.run(_baseline_variant(exp, l1d_kb=kb), kind)
                        for kb in L1D_KB)
        values[f"gain_{kind}"] = large.ipc / small.ipc - 1
        values[f"l1_up_{kind}"] = (large.hier_stats.data_fraction(0)
                                   > small.hier_stats.data_fraction(0))
    return values


#: The contention claims' grid: uniform vs skewed, on a 4-warehouse
#: hotspot (at the study scale every client otherwise gets a private
#: home warehouse, and nothing conflicts).
CLAIM_THETAS = (0.0, 0.9)
HOT_WAREHOUSES = 4


def _contention(exp) -> dict:
    points = {p.theta: p.contention for p in contention_sweep(
        exp, thetas=CLAIM_THETAS, cc_modes=("2pl",),
        hot_warehouses=HOT_WAREHOUSES)}
    lo, hi = (points[t] for t in CLAIM_THETAS)
    return {"abort_lo": lo.abort_rate, "abort_hi": hi.abort_rate,
            "wait_lo": lo.lock_wait_share, "wait_hi": hi.lock_wait_share}


#: The smaller study scale the scale-invariance claim compares against.
SMALL_SCALE = 0.1


def _methodology(exp) -> dict:
    small = Experiment(scale=SMALL_SCALE, measure_cycles=exp.measure_cycles,
                       cache=exp.cache, use_cache=exp.cache is not None,
                       telemetry=exp.telemetry, settings=exp.settings)
    fc = fc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=SMALL_SCALE)
    lc = lc_cmp(l2_nominal_mb=BASELINE_L2_MB, scale=SMALL_SCALE)
    small.prefetch([RunSpec(config, kind, regime)
                    for config in (fc, lc) for kind in _KINDS
                    for regime in ("saturated", "unsaturated")])
    ratios = {f"{metric}_{kind}": ratio(lc, fc, kind)
              for kind in _KINDS
              for metric, ratio in (("resp", small.response_ratio),
                                    ("tput", small.throughput_ratio))}
    large = _fig4(exp)
    devs = [abs(ratios[k] - large[k]) / abs(large[k]) for k in ratios]
    return {"max_dev": max(devs), "small": SMALL_SCALE, "scale": exp.scale}


# ---------------------------------------------------------------------- #
# The registry                                                            #
# ---------------------------------------------------------------------- #

#: Group name -> its measurement and figure, in paper order.
GROUPS = {
    "table1": Group(
        "Table 1 — chip multiprocessor camp characteristics", _table1,
        _table1_text,
        "Table 1: chip multiprocessor camp characteristics, as text."),
    "fig1": Group(
        "Figure 1 — historic cache trends", _fig1, _fig1_text,
        "Figure 1: historic on-chip cache size and latency trends."),
    "fig2": Group(
        "Figure 2 — unsaturated vs saturated workloads", _fig2, _fig2_text,
        "Figure 2: throughput vs concurrent clients (saturation curve)."),
    "fig3": Group(
        "Figure 3 — validation against the published CPI stack", _fig3,
        _fig3_text,
        "Figure 3: simulator CPI stack vs the published hardware stack."),
    "fig4": Group(
        "Figure 4 — LC normalized to FC (26 MB baseline)", _fig4,
        _fig4_text,
        "Figure 4: LC response time and throughput normalized to FC."),
    "fig5": Group(
        "Figure 5 — execution-time breakdown (8 cells, 26 MB L2)", _fig5,
        _fig5_text,
        "Figure 5: execution-time breakdown for all eight taxonomy cells."),
    "fig6": Group(
        "Figure 6 — cache size and latency (FC CMP, saturated)", _fig6,
        _fig6_text,
        "Figure 6: L2 size/latency effects on throughput and CPI stacks."),
    "fig7": Group(
        "Figure 7 — SMP vs CMP (4×4 MB private vs 16 MB shared)", _fig7,
        _fig7_text,
        "Figure 7: SMP (private MESI L2s) vs CMP (shared L2) CPI."),
    "fig8": Group(
        "Figure 8 — core count (4→16 cores, 16 MB shared L2)", _fig8,
        _fig8_text,
        "Figure 8: throughput scaling with core count at a fixed L2."),
    "equal-area": Group("Section 2.1 — equal-area camps ablation",
                        _equal_area),
    "prefetcher": Group("Section 3 — stride prefetcher ablation",
                        _prefetcher),
    "stream-buffers": Group("Section 4 — instruction stream buffer ablation",
                            _stream_buffers),
    "l2-design": Group("Section 5.4 — L2 port-design ablation", _l2_design),
    "staged": Group("Section 6 — staged execution ablation", _staged),
    "parallelism": Group("Section 6.1 — intra-query parallelism ablation",
                         _parallelism),
    "pax": Group("Section 6.2 — PAX vs NSM layout ablation", _pax),
    "l1d": Group("Section 6.2 — L1D capacity ablation", _l1d),
    "contention": Group(
        "Contention — skewed TPC-C under 2PL (beyond the paper)",
        _contention),
    "methodology": Group("Methodology — scale invariance", _methodology),
}

CLAIMS: list[Claim] = [
    Claim("fig1", "on-chip cache growth", "exponential across generations",
          "{growth:.0f}x per decade (log-linear fit over "
          "{n} processors)",
          holds=lambda m: m.growth > 1),
    Claim("fig1", "L2 hit latency growth",
          ">3x over a decade (4 cyc PIII → 14 cyc Power5)",
          "{lat:.1f}x (1990s mean → 2000s mean)",
          holds=lambda m: m.lat > 1 and m.anchors,
          near=lambda m: m.lat >= 3 * (1 - REL),
          note="the named 4→14 anchor pair is in the dataset"),
    Claim("fig1", "largest on-chip caches",
          "16 MB Xeon 7100, 24 MB Itanium 2",
          "both in the dataset (max {max_mb} MB)",
          holds=lambda m: m.largest and m.max_mb == 24),

    Claim("fig2", "throughput rises, then saturates",
          "knee once idle contexts are exhausted",
          "peak at {peak_x:g} clients, {peak:.1f}x the single-client "
          "throughput",
          holds=lambda m: m.peak > 1.5 and m.late < m.early,
          note="the knee lands at more clients than on the paper's "
               "Power5: our contexts multiplex queued clients with no OS "
               "overhead beyond the modeled context switch"),
    Claim("fig2", "over-saturation degrades",
          "\"too far overwhelms the hardware\"",
          "{last_x:g} clients: {drop:+.0%} vs peak",
          holds=lambda m: m.drop < 0),

    Claim("fig3", "overall CPI", "within 5% (absolute, same machine)",
          "total CPI {total:+.0%} vs published stack; max "
          "component-share delta {max_share:.1%}",
          holds=lambda m: m.within25,
          near=lambda m: abs(m.total) <= 0.05, expected="direction",
          note="absolute CPI follows our synthetic cost model, so the "
               "harness compares component shares (all within 25 "
               "points)"),
    Claim("fig3", "computation share", "10% higher on hardware",
          "ours {comp:+.1%} vs the hardware share",
          holds=lambda m: m.comp_lower, expected="miss",
          note="ours is marginally higher, not lower; the shares still "
               "agree within 14 points"),
    Claim("fig3", "data-stall share", "15% higher in the simulator",
          "ours {dstall:+.1%} vs the hardware share",
          holds=lambda m: m.dstall_higher),

    Claim("fig4", "4a unsat DSS response LC/FC", "up to 1.70",
          "{resp_dss:.2f}",
          holds=lambda m: m.resp_dss > 1,
          near=lambda m: _near(m.resp_dss, 1.70)),
    Claim("fig4", "4a unsat OLTP response LC/FC", "up to 1.12",
          "{resp_oltp:.2f}",
          holds=lambda m: 1 < m.resp_oltp < m.resp_dss,
          near=lambda m: _near(m.resp_oltp, 1.12), expected="direction",
          note="the OLTP gap stays below the DSS gap (the paper's "
               "limited-ILP point); magnitude high — our lean core pays "
               "the full in-order issue penalty on compute that the "
               "paper's response times largely hid behind stalls"),
    Claim("fig4", "4b sat throughput LC/FC", "~1.70 both",
          "OLTP {tput_oltp:.2f}, DSS {tput_dss:.2f}",
          holds=lambda m: m.tput_oltp > 1 and m.tput_dss > 1,
          near=lambda m: _near(m.tput_oltp, 1.70) and _near(m.tput_dss,
                                                            1.70),
          expected="direction",
          note="OLTP within tolerance; our fat core overlaps the mostly "
               "independent, L2-resident DSS traffic more effectively "
               "than theirs did"),

    Claim("fig5", "FC saturated data stalls", "46-64%",
          "OLTP {fc_d_stalls_oltp:.0%}, DSS {fc_d_stalls_dss:.0%}",
          holds=lambda m: min(m.fc_d_stalls_oltp, m.fc_d_stalls_dss)
          > max(m.lc_d_stalls_oltp, m.lc_d_stalls_dss),
          near=lambda m: _in_range(m.fc_d_stalls_oltp, 0.46, 0.64)
          and _in_range(m.fc_d_stalls_dss, 0.46, 0.64),
          expected="direction", note="OLTP in range; DSS under it"),
    Claim("fig5", "LC saturated computation", "76-80%",
          "OLTP {lc_computation_oltp:.0%}, DSS {lc_computation_dss:.0%}",
          holds=lambda m: min(m.lc_computation_oltp,
                              m.lc_computation_dss) > 0.5,
          near=lambda m: _in_range(m.lc_computation_oltp, 0.76, 0.80)
          and _in_range(m.lc_computation_dss, 0.76, 0.80),
          expected="direction",
          note="our lean camp over-hides: nearly all DSS traffic is "
               "on-chip at 26 MB and 4 contexts cover 22-cycle hits "
               "completely"),
    Claim("fig5", "LC saturated data stalls", "≤13%",
          "OLTP {lc_d_stalls_oltp:.0%}, DSS {lc_d_stalls_dss:.0%}",
          holds=lambda m: max(m.lc_d_stalls_oltp, m.lc_d_stalls_dss)
          <= 0.13 * (1 + REL)),
    Claim("fig5", "D-stalls dominate I-stalls", "all 8 combinations",
          "{d_over_i}/8",
          holds=lambda m: m.d_over_i == 8),
    Claim("fig5", "stalls hidden only in LC×saturated",
          "1 of 4 camp×regime combos",
          "computation ≥{hiding_min:.0%} in both LC×saturated cells, "
          "≤{other_max:.0%} elsewhere ({other})",
          holds=lambda m: m.hiding_min > m.other_max,
          note="both unsaturated LC cells are stall-bound"),

    Claim("fig6", "const-latency speedup 1→26 MB", "~2x",
          "OLTP {gain_oltp:.2f}x, DSS {gain_dss:.2f}x",
          holds=lambda m: m.gain_oltp > 1 and m.gain_dss > 1,
          near=lambda m: _near(m.gain_oltp, 2.0) and _near(m.gain_dss, 2.0),
          expected="direction",
          note="OLTP within tolerance; DSS high — our scan-bound mix has "
               "a deeper capacity cliff"),
    Claim("fig6", "real latency erodes the benefit",
          "2.2x OLTP / 2x DSS at 26 MB",
          "OLTP {erosion_oltp:.2f}x, DSS {erosion_dss:.2f}x",
          holds=lambda m: m.erodes_oltp and m.erodes_dss,
          near=lambda m: _near(m.erosion_oltp, 2.2)
          and _near(m.erosion_dss, 2.0),
          expected="direction",
          note="real below const at every size ≥8 MB; weaker because "
               "only dependent hits expose the full added latency in our "
               "fat-core model"),
    Claim("fig6", "throughput falls with big caches", "4→26 MB −30%",
          "OLTP 8→26 MB {d8_oltp:+.0%}, 4→26 MB {d4_oltp:+.0%}; "
          "DSS 4→26 MB {d4_dss:+.0%}",
          holds=lambda m: m.falls_oltp,
          near=lambda m: _near(m.d4_oltp, -0.30), expected="direction",
          note="OLTP peaks at 8-16 MB and declines beyond; our OLTP "
               "working-set capture finishes later than theirs"),
    Claim("fig6", "L2-hit stalls at 26 MB", "up to 35% of execution time",
          "OLTP {l2hit_oltp:.0%}, DSS {l2hit_dss:.0%}",
          holds=lambda m: 0 < max(m.l2hit_oltp, m.l2hit_dss)
          <= 0.35 * (1 + REL),
          near=lambda m: _near(max(m.l2hit_oltp, m.l2hit_dss), 0.35)),
    Claim("fig6", "L2-hit stall growth 1→26 MB",
          "12-fold (latency drives ~78%)",
          "OLTP {growth_oltp:.1f}x, DSS {growth_dss:.0f}x",
          holds=lambda m: m.growth_oltp > 1 and m.growth_dss > 1,
          near=lambda m: _near(m.growth_oltp, 12) and _near(m.growth_dss,
                                                            12),
          expected="direction",
          note="OLTP's L2-hit base at 1 MB is larger than theirs; DSS's "
               "is ~zero"),

    Claim("fig7", "CMP outperforms SMP",
          "OLTP CPI 1.40→1.01 (1.39x), DSS 1.95→1.46 (1.34x)",
          "OLTP {speedup_oltp:.2f}x, DSS {speedup_dss:.2f}x",
          holds=lambda m: m.speedup_oltp > 1 and m.speedup_dss > 1,
          near=lambda m: _near(m.speedup_oltp, 1.39)
          and _near(m.speedup_dss, 1.34),
          expected="direction",
          note="OLTP within tolerance; DSS weak — read-shared scan data "
               "replicates cleanly into private L2s in our model, so the "
               "SMP's only handicap is capacity"),
    Claim("fig7", "L2-hit stall CPI grows on CMP", "~7x",
          "OLTP {l2hit_oltp:.1f}x, DSS {l2hit_dss:.1f}x",
          holds=lambda m: m.l2hit_oltp > 1 and m.l2hit_dss > 1,
          near=lambda m: _near(m.l2hit_oltp, 7) and _near(m.l2hit_dss, 7),
          expected="direction",
          note="coherence misses become on-chip hits"),
    Claim("fig7", "coherence elimination",
          "converted to shared-L2 hits / L1-to-L1 transfers",
          "CMP coherence misses {coh_cmp_oltp} / {coh_cmp_dss}; SMP "
          "{coh_smp_oltp:,} (OLTP) / {coh_smp_dss:,} (DSS)",
          holds=lambda m: m.coh_smp_oltp > 0 and m.coh_smp_dss > 0
          and m.coh_cmp_oltp == 0 and m.coh_cmp_dss == 0),

    Claim("fig8", "DSS superlinear at 8 cores", "~+9%",
          "{super8_dss:+.0%} vs linear",
          holds=lambda m: m.super8_dss > 0, expected="miss",
          note="our chunk sharing is constant across core counts (the "
               "OS-quantum client multiplexing circulates all 16 clients "
               "through the L2 at any core count), so there is no extra "
               "sharing to unlock"),
    Claim("fig8", "OLTP at 16 cores", "~74% of linear",
          "{at16_oltp:.0%} of linear",
          holds=lambda m: m.at16_oltp < 1,
          near=lambda m: _near(m.at16_oltp, 0.74), expected="direction",
          note="sublinear; our open-queue bank model lacks the paper's "
               "burst correlation"),
    Claim("fig8", "L2 miss rate as cores grow", "keeps dropping",
          "OLTP {miss4_oltp:.3f}→{miss16_oltp:.3f}, "
          "DSS {miss4_dss:.3f}→{miss16_dss:.3f}",
          holds=lambda m: m.miss16_dss <= m.miss4_dss,
          near=lambda m: m.miss16_oltp <= m.miss4_oltp,
          expected="direction",
          note="DSS drops, OLTP stays roughly flat: the quantum client multiplexing circulates shared DSS "
               "chunks through the L2"),
    Claim("fig8", "pressure is queueing, not misses",
          "queueing at shared-L2 ports",
          "L2 queue cycles grow {queue_oltp:.0f}x (OLTP) / "
          "{queue_dss:.0f}x (DSS) from 4→16 cores",
          holds=lambda m: m.queue_up_oltp and m.queue_up_dss
          and m.grows_oltp and m.grows_dss,
          note="throughput still grows with cores in both workloads"),

    Claim("equal-area", "LC fits ~3x the cores per unit area",
          "Table 1: core size 3x",
          "{cores} lean cores in 4 fat cores' budget ({fc_mm2:.0f} mm²)",
          holds=lambda m: m.cores == 12
          and abs(m.lc_mm2 - m.fc_mm2) <= 1e-6 * m.fc_mm2),
    Claim("equal-area", "constant area favors LC further",
          "\"would allow LC to attain even higher performance in heavily "
          "multithreaded workloads\"",
          "equal-area LC: {lc_area_oltp:.2f}x (OLTP) / {lc_area_dss:.2f}x "
          "(DSS) the fat CMP's throughput",
          holds=lambda m: m.lc_area_oltp > m.lc4_oltp > 1
          and m.lc_area_dss > m.lc4_dss > 1),

    Claim("prefetcher", "OLTP gain", "<10%", "{oltp:+.1%}",
          holds=lambda m: -0.02 <= m.oltp <= 0.10,
          note="no stable strides in the transaction mix"),
    Claim("prefetcher", "scan-dominated DSS gain",
          "insignificant (<20% conservatively)", "{dss:+.1%}",
          holds=lambda m: -0.02 <= m.dss <= 0.20),

    Claim("stream-buffers", "ISBs reduce I-stalls",
          "efficiently (esp. OLTP's big code footprint)",
          "OLTP I-stalls {off_oltp:.0%}→{on_oltp:.0%} of time "
          "({ipc_oltp:+.0%} IPC); DSS {off_dss:.0%}→{on_dss:.0%}",
          holds=lambda m: m.off_oltp > m.on_oltp and m.ipc_oltp > 0),
    Claim("stream-buffers", "with ISBs, D-stalls dominate", "everywhere",
          "OLTP D {d_oltp:.0%} vs I {on_oltp:.0%}",
          holds=lambda m: m.d_oltp > m.on_oltp,
          note="all 8 cells of Figure 5 too"),

    Claim("l2-design", "future CMPs will relieve L2 port pressure",
          "\"specially-designed L2 caches to reduce this pressure\"",
          "16-core OLTP: 1 bank → 8 banks cuts queue cycles "
          "{queue:.0f}x and gains {gain:+.0%} throughput",
          holds=lambda m: m.queue8 < m.queue1 and m.gain >= 0),

    Claim("staged", "cohort scheduling protects L1D locality",
          "batches re-read while L1-resident",
          "cohort {cohort:,.0f} busy-cycles/query vs {spread:,.0f} with "
          "the consumer on a remote core ({penalty:+.0%})",
          holds=lambda m: m.spread > m.cohort
          and m.onchip_spread > m.onchip_cohort),
    Claim("staged", "staging as a locality treatment",
          "no full redesign needed",
          "cohort is {cheaper:.0%} cheaper per query than the iterator "
          "model",
          holds=lambda m: m.cohort < m.iterator,
          note="fewer code-region switches, batch amortization"),

    Claim("parallelism", "partitioned sub-queries fill idle contexts",
          "\"dividing work among more threads can utilize the otherwise "
          "idle hardware contexts\"",
          "Q6 plan: FC 4-way {fc4:.2f}x faster; LC 4-way {lc4:.2f}x",
          holds=lambda m: m.fc4 > 1 and m.lc4 > 1),
    Claim("parallelism", "the context-rich lean camp scales furthest",
          "LC offers 16 contexts vs FC's 4", "LC 16-way: {lc16:.1f}x",
          holds=lambda m: m.lc16 > m.fc4),

    Claim("pax", "PAX cuts misses for per-column access",
          "\"restructures the data layout ... to reduce the number of "
          "cache misses\"",
          "narrow projection {speedup:.1f}x faster; off-chip accesses "
          "{offchip_nsm:,} → {offchip_pax:,}",
          holds=lambda m: m.same_answer
          and m.lines_pax < m.lines_nsm / 2 and m.resp_pax < m.resp_nsm),

    Claim("l1d", "gains beyond L2 need L1D locality",
          "\"bring data beyond L2 and closer to L1\"",
          "8→128 KB L1D buys {gain_oltp:+.0%} (OLTP) / {gain_dss:+.0%} "
          "(DSS) at a fixed 26 MB L2",
          holds=lambda m: m.gain_oltp > 0 and m.gain_dss > 0
          and m.l1_up_oltp and m.l1_up_dss),

    Claim("contention", "skew raises 2PL aborts",
          "— (the paper fixed uniform TPC-C)",
          "abort rate {abort_lo:.3f} → {abort_hi:.3f} (θ 0 → 0.9, "
          "4 hot warehouses)",
          holds=lambda m: m.abort_hi > m.abort_lo),
    Claim("contention", "skew raises 2PL lock-wait share",
          "— (the paper fixed uniform TPC-C)",
          "lock-wait share {wait_lo:.1%} → {wait_hi:.1%}",
          holds=lambda m: m.wait_hi > m.wait_lo),

    Claim("methodology", "scaled workloads preserve behaviour",
          "DBmbench [24]: database size does not change "
          "microarchitectural behaviour",
          "Fig. 4 camp ratios agree within {max_dev:.0%} between scales "
          "{small:g} and {scale:g}",
          holds=lambda m: m.max_dev <= 0.25),
]


# ---------------------------------------------------------------------- #
# Rendering                                                               #
# ---------------------------------------------------------------------- #


def claim_groups() -> list[str]:
    """The groups that carry claims, in registry order."""
    return list(dict.fromkeys(claim.group for claim in CLAIMS))


def _check(group: str, values: dict) -> list[ClaimRow]:
    """The rows of ``group``'s claims over its measured ``values``."""
    return [ClaimRow(claim.group, claim.label, claim.paper,
                     claim.show.format_map(values), claim.verdict(values),
                     claim.expected, claim.note)
            for claim in CLAIMS if claim.group == group]


def claim_rows(exp, groups=None) -> list[ClaimRow]:
    """Measure and check the claims of ``groups`` (default: all), in
    registry order, measuring each group once."""
    return [row for group in claim_groups()
            if groups is None or group in groups
            for row in _check(group, GROUPS[group].measure(exp))]


def _verdict_text(row: ClaimRow) -> str:
    if row.verdict == row.expected:
        return row.verdict
    return f"{row.verdict} (expected {row.expected})"


def regressions(rows: list[ClaimRow]) -> list[ClaimRow]:
    """The rows whose verdict ranks below their expected one."""
    return [row for row in rows
            if VERDICTS.index(row.verdict) > VERDICTS.index(row.expected)]


def format_markdown(rows: list[ClaimRow], scale: float) -> str:
    """One markdown table per group plus the summary line: the output of
    ``repro claims`` and the generated block of EXPERIMENTS.md."""
    parts = []
    for name, group in GROUPS.items():
        mine = [row for row in rows if row.group == name]
        if not mine:
            continue
        lines = [f"### {group.title}", "",
                 "| claim | paper | measured | verdict | note |",
                 "|---|---|---|---|---|"]
        lines += [f"| {r.claim} | {r.paper} | {r.measured} | "
                  f"{_verdict_text(r)} | {r.note} |" for r in mine]
        parts.append("\n".join(lines))
    counts = {v: sum(row.verdict == v for row in rows) for v in VERDICTS}
    parts.append(
        f"Summary at scale {scale:g}: {len(rows)} claims — "
        f"{counts['match']} match (within {REL:.0%} of the paper's value, "
        f"or in direction where the claim is directional), "
        f"{counts['direction']} direction (the direction reproduces, the "
        f"magnitude misses), {counts['miss']} miss (the direction fails); "
        f"each gap carries a diagnosis in its note.")
    return "\n\n".join(parts)


def paper_vs_measured(group: str, values: dict) -> str:
    """A figure's "paper vs measured" block: its group's claim rows over
    the values its figure was rendered from."""
    return format_table(
        ["claim", "paper", "measured", "verdict"],
        [[r.claim, r.paper, r.measured, _verdict_text(r)]
         for r in _check(group, values)],
        title="paper vs measured")


def figure(name: str, exp) -> str:
    """Group ``name``'s figure, measured once: its rendered text, then its
    "paper vs measured" block over the same values (a group without
    claims, Table 1, has none)."""
    group = GROUPS[name]
    values = group.measure(exp)
    parts = [group.render(values)]
    if name in claim_groups():
        parts.append(paper_vs_measured(name, values))
    return "\n\n".join(parts)
