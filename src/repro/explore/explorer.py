"""The prune-then-confirm loop (DESIGN.md §10.3).

``explore`` screens every in-budget candidate with the calibrated model,
keeps the predicted throughput-vs-area Pareto frontier per workload
kind, then spends simulator time only on the frontier (plus the best
chip of each camp, so the fat-vs-lean comparison is always confirmed
head-to-head).  The report carries the model-vs-simulator screening
error and the paper's two qualitative checks:

- *lean wins saturated*: at equal area, the best lean chip out-throughputs
  the best fat chip on the saturated workload;
- *fat wins unsaturated*: the same best chips re-run in response mode,
  where the fat core's single-thread speed wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.experiment import Experiment, RunSpec
from ..core.reporting import format_table
from ..core.validation import ModelValidationReport, format_model_validation
from ..model import calibrate
from ..model.calibrate import KINDS, CalibratedModel
from .space import Candidate, default_budget_mm2, enumerate_candidates, quick_budget_mm2


@dataclass(frozen=True)
class ScreenRow:
    """One model evaluation of one candidate for one workload kind."""

    candidate: Candidate
    kind: str
    predicted_ipc: float
    utilization: float


@dataclass(frozen=True)
class ConfirmRow:
    """A frontier point confirmed by the simulator.

    ``metric`` is ``"ipc"`` (saturated) or ``"response_cycles"``
    (unsaturated — lower is better).
    """

    label: str
    kind: str
    camp: str
    area_mm2: float
    metric: str
    predicted: float
    measured: float

    @property
    def rel_error(self) -> float:
        if not self.measured:
            return float("inf") if self.predicted else 0.0
        return (self.predicted - self.measured) / self.measured


@dataclass
class ExploreReport:
    """Everything one exploration produced.

    Attributes:
        budget_mm2: The equal-area silicon budget.
        scale: Study scale the confirmations ran at.
        n_candidates: In-budget design points enumerated.
        n_screened: Model evaluations performed (candidates x kinds).
        screen_seconds: Wall time of the model screening pass.
        frontier: Predicted Pareto frontier per kind (area ascending).
        confirmed: Simulator-confirmed saturated frontier points.
        unsaturated: Best-per-camp chips re-run in response mode.
        checks: Qualitative-claim outcomes, e.g.
            ``"oltp: lean wins saturated" -> True``.
        validation: Held-out model error report (None when skipped).
    """

    budget_mm2: float
    scale: float
    n_candidates: int
    n_screened: int
    screen_seconds: float
    frontier: dict[str, list[ScreenRow]] = field(default_factory=dict)
    confirmed: list[ConfirmRow] = field(default_factory=list)
    unsaturated: list[ConfirmRow] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    validation: ModelValidationReport | None = None

    @property
    def screening_mae(self) -> float:
        """Mean absolute model error across the confirmed frontier."""
        rows = self.confirmed
        if not rows:
            return 0.0
        return sum(abs(r.rel_error) for r in rows) / len(rows)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values()) if self.checks else False


def _pareto(rows: list[ScreenRow]) -> list[ScreenRow]:
    """The throughput-vs-area frontier: area ascending, throughput must
    strictly improve (deterministic — ties keep the first-enumerated)."""
    best = -1.0
    frontier = []
    for row in sorted(rows, key=lambda r: (r.candidate.total_mm2,
                                           -r.predicted_ipc)):
        if row.predicted_ipc > best:
            frontier.append(row)
            best = row.predicted_ipc
    return frontier


def _best_per_camp(rows: list[ScreenRow]) -> dict[str, ScreenRow]:
    best: dict[str, ScreenRow] = {}
    for row in rows:
        camp = row.candidate.camp
        cur = best.get(camp)
        if cur is None or row.predicted_ipc > cur.predicted_ipc:
            best[camp] = row
    return best


def explore(
    exp: Experiment,
    budget_mm2: float | None = None,
    kinds: tuple[str, ...] = KINDS,
    model: CalibratedModel | None = None,
    quick: bool = False,
    confirm_top: int | None = None,
    validate: bool = True,
    jobs: int | None = None,
) -> ExploreReport:
    """Run the full prune-then-confirm loop.

    Args:
        exp: The memoizing experiment (cache + parallel fan-out).
        budget_mm2: Equal-area budget; None picks the canonical
            (or, with ``quick``, the CI smoke) budget.
        kinds: Workload kinds to explore.
        model: A pre-fitted model; None fits one against ``exp``.
        quick: CI smoke mode — smaller budget and confirmation set.
        confirm_top: Frontier points to confirm per kind (None: 4, or
            2 in quick mode); the best chip of each camp is always
            confirmed on top of these.
        validate: Also cross-validate the model on the held-out
            golden-figure sizes (the reported error bound).
        jobs: Worker fan-out for calibration/confirmation batches.
    """
    if budget_mm2 is None:
        budget_mm2 = quick_budget_mm2() if quick else default_budget_mm2()
    if confirm_top is None:
        confirm_top = 2 if quick else 4

    # Validate the budget before spending any simulator time on fitting.
    candidates = enumerate_candidates(budget_mm2)
    camps_present = {c.camp for c in candidates}
    if camps_present != {"fc", "lc"}:
        raise ValueError(
            f"budget {budget_mm2:g} mm^2 leaves no in-budget candidates "
            f"for camp(s) {sorted({'fc', 'lc'} - camps_present)}")

    if model is None:
        model = calibrate.fit(exp, kinds=kinds, jobs=jobs)
    validation = (calibrate.cross_validate(exp, model, kinds=kinds, jobs=jobs)
                  if validate else None)

    # ---- screen (pure model, microseconds per point) ------------------ #
    t0 = time.monotonic()
    screened: dict[str, list[ScreenRow]] = {k: [] for k in kinds}
    for kind in kinds:
        for cand in candidates:
            pred = model.predict(cand.config(exp.scale), kind, "saturated")
            screened[kind].append(ScreenRow(
                candidate=cand, kind=kind,
                predicted_ipc=pred.ipc, utilization=pred.utilization))
    screen_seconds = time.monotonic() - t0

    report = ExploreReport(
        budget_mm2=budget_mm2, scale=exp.scale,
        n_candidates=len(candidates),
        n_screened=len(candidates) * len(kinds),
        screen_seconds=screen_seconds,
        frontier={k: _pareto(rows) for k, rows in screened.items()},
        validation=validation,
    )

    # ---- pick the confirmation set ------------------------------------ #
    to_confirm: dict[tuple[str, Candidate], ScreenRow] = {}
    best_chips: dict[tuple[str, str], ScreenRow] = {}
    for kind in kinds:
        frontier = report.frontier[kind]
        top = sorted(frontier, key=lambda r: -r.predicted_ipc)[:confirm_top]
        for row in top:
            to_confirm[(kind, row.candidate)] = row
        for camp, row in _best_per_camp(screened[kind]).items():
            best_chips[(kind, camp)] = row
            to_confirm[(kind, row.candidate)] = row

    # ---- confirm with the simulator ----------------------------------- #
    sat_keys = sorted(to_confirm,
                      key=lambda kc: (kc[0], kc[1].camp, kc[1].total_mm2))
    sat_configs = {kc: kc[1].config(exp.scale) for kc in sat_keys}
    unsat_keys = sorted(best_chips)
    unsat_configs = {kc: best_chips[kc].candidate.config(exp.scale)
                     for kc in unsat_keys}
    exp.prefetch(
        [RunSpec(sat_configs[kc], kc[0], "saturated") for kc in sat_keys]
        + [RunSpec(unsat_configs[kc], kc[0], "unsaturated")
           for kc in unsat_keys],
        jobs=jobs)

    for kind, cand in sat_keys:
        row = to_confirm[(kind, cand)]
        sim = exp.run(sat_configs[(kind, cand)], kind, "saturated")
        report.confirmed.append(ConfirmRow(
            label=cand.label, kind=kind, camp=cand.camp,
            area_mm2=cand.total_mm2, metric="ipc",
            predicted=row.predicted_ipc, measured=sim.ipc))

    for kind, camp in unsat_keys:
        cand = best_chips[(kind, camp)].candidate
        config = unsat_configs[(kind, camp)]
        sim = exp.run(config, kind, "unsaturated")
        pred = model.predict(config, kind, "unsaturated")
        report.unsaturated.append(ConfirmRow(
            label=cand.label, kind=kind, camp=camp,
            area_mm2=cand.total_mm2, metric="response_cycles",
            predicted=pred.response_cycles,
            measured=sim.response_cycles))

    # ---- the paper's qualitative claims ------------------------------- #
    for kind in kinds:
        sat = {r.camp: r for r in report.confirmed
               if r.kind == kind and r.label in (
                   best_chips[(kind, "fc")].candidate.label,
                   best_chips[(kind, "lc")].candidate.label)}
        uns = {r.camp: r for r in report.unsaturated if r.kind == kind}
        report.checks[f"{kind}: lean wins saturated throughput"] = (
            sat["lc"].measured > sat["fc"].measured)
        report.checks[f"{kind}: fat wins unsaturated response"] = (
            uns["fc"].measured < uns["lc"].measured)
    return report


def format_explore(report: ExploreReport) -> str:
    """Human-readable exploration report (the ``repro explore`` output)."""
    lines = [
        f"design space: {report.n_candidates} candidates under "
        f"{report.budget_mm2:.1f} mm^2 (scale {report.scale:g}); "
        f"model screened {report.n_screened} points in "
        f"{report.screen_seconds:.2f}s",
        "",
    ]
    for kind, frontier in report.frontier.items():
        rows = [[r.candidate.label, f"{r.candidate.total_mm2:.1f}",
                 r.predicted_ipc, f"{r.utilization:.0%}"]
                for r in frontier]
        lines.append(format_table(
            ["config", "mm^2", "pred IPC", "L2 util"], rows,
            title=f"predicted Pareto frontier — {kind} (saturated)"))
        lines.append("")
    conf_rows = [[r.label, r.kind, f"{r.area_mm2:.1f}",
                  r.predicted, r.measured, f"{r.rel_error:+.1%}"]
                 for r in report.confirmed]
    lines.append(format_table(
        ["config", "kind", "mm^2", "model", "simulator", "error"],
        conf_rows,
        title="simulator-confirmed frontier (saturated IPC)"))
    lines.append(f"screening MAE on confirmed set: "
                 f"{report.screening_mae:.1%}")
    lines.append("")
    unsat_rows = [[r.label, r.kind, f"{r.area_mm2:.1f}",
                   r.predicted, r.measured, f"{r.rel_error:+.1%}"]
                  for r in report.unsaturated]
    lines.append(format_table(
        ["config", "kind", "mm^2", "model", "simulator", "error"],
        unsat_rows,
        title="best chip per camp, response mode (cycles, lower wins)"))
    lines.append("")
    for name, ok in report.checks.items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
    if report.validation is not None:
        lines.append("")
        lines.append(format_model_validation(report.validation))
    return "\n".join(lines)
