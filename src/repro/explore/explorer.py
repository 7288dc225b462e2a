"""The screen-and-confirm loop (DESIGN.md §10.3 and §15.4).

``explore`` answers the paper's equal-area question over the candidate
grid of :mod:`.space` with a sockets x placement axis on top.  It is
one loop:

1. Screen every in-budget candidate with the calibrated model, per
   (kind, sockets, placement, camp) cell.
2. Simulate each cell's predicted best chip, its *anchor*.
3. Keep the best measured anchor per (kind, sockets, camp) as that
   camp's *winner*, and re-run the winners in response mode.
4. Check the paper's two claims per (kind, sockets): at equal area the
   lean winner out-throughputs the fat one on the saturated workload
   (*lean wins saturated*), and the fat winner answers faster
   unsaturated (*fat wins unsaturated*).

Only the extra saturated confirmations depend on the topology:

- **One socket.**  The model is §10's, so the top of the predicted
  throughput-vs-area Pareto frontier is confirmed against its raw
  predictions.  Every confirmed row is scored, and the model is also
  cross-validated on the held-out golden sizes.
- **Islands** (any active topology).  The model's island terms are
  first order: they rank a cell's candidates but miss its anchor by up
  to ~40%.  Each anchor's measured/predicted ratio therefore corrects
  its cell, and each winning cell's runner-up is confirmed against the
  corrected prediction.  Only those holdouts are scored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.experiment import Experiment, RunSpec
from ..core.reporting import format_table
from ..core.validation import ModelValidationReport, format_model_validation
from ..model import calibrate
from ..model.calibrate import CAMPS, ERROR_BOUND, KINDS, CalibratedModel
from ..simulator.topology import DEFAULT_PLACEMENT, IslandTopology, \
    check_geometry, check_placement
from .space import Candidate, default_budget_mm2, enumerate_candidates, \
    quick_budget_mm2


@dataclass(frozen=True)
class ScreenRow:
    """One model evaluation of one candidate in one
    (kind, sockets, placement) cell."""

    candidate: Candidate
    kind: str
    predicted_ipc: float
    utilization: float
    sockets: int = 1
    placement: str = DEFAULT_PLACEMENT


@dataclass(frozen=True)
class ConfirmRow:
    """A screened point confirmed by the simulator.

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


@dataclass(frozen=True)
class IslandConfirmRow(ConfirmRow):
    """A confirmed point of an islands exploration.

    ``role`` is ``"anchor"`` (its cell's predicted best chip: the
    measurement defines the cell correction, so ``predicted`` is the raw
    model's), ``"holdout"`` (a winning cell's runner-up, predicted with
    the correction) or ``"unsaturated"`` (a winner re-run in response
    mode).
    """

    sockets: int
    placement: str
    role: str


@dataclass
class ExploreReport:
    """Everything one exploration produced.

    Attributes:
        budget_mm2: The equal-area silicon budget.
        scale: Study scale the confirmations ran at.
        islands: Whether an active islands topology was explored (the
            anchored confirmation set).
        remote_l2_latency, remote_mem_latency: The islands' remote
            latency multipliers.
        candidates: In-budget candidates per socket count (those whose
            geometry carves into its islands).
        n_screened: Model evaluations performed.
        screen_seconds: Wall time of the model screening pass.
        frontier: Predicted Pareto frontier per kind (area ascending;
            one socket only).
        winners: The best measured anchor per (kind, sockets, camp).
        confirmed: Simulator-confirmed saturated points.
        unsaturated: The winners re-run in response mode.
        checks: Qualitative-claim outcomes, e.g.
            ``"oltp: lean wins saturated throughput" -> True`` (or
            ``"oltp @ 2s: ..."`` on islands).
        validation: Held-out model error report (None when skipped, and
            on islands).
    """

    budget_mm2: float
    scale: float
    islands: bool
    remote_l2_latency: float
    remote_mem_latency: float
    candidates: dict[int, int]
    n_screened: int
    screen_seconds: float
    frontier: dict[str, list[ScreenRow]] = field(default_factory=dict)
    winners: list[ConfirmRow] = field(default_factory=list)
    confirmed: list[ConfirmRow] = field(default_factory=list)
    unsaturated: list[ConfirmRow] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    validation: ModelValidationReport | None = None

    @property
    def n_candidates(self) -> int:
        """In-budget candidates, summed over socket counts."""
        return sum(self.candidates.values())

    @property
    def screening_mae(self) -> float:
        """Mean absolute model error over the scored confirmed rows:
        all of them on one socket, the holdouts on islands (an anchor's
        measurement defines its cell's correction)."""
        rows = [r for r in self.confirmed
                if not self.islands or r.role == "holdout"]
        if not rows:
            return 0.0
        return sum(abs(r.rel_error) for r in rows) / len(rows)

    @property
    def within_bound(self) -> bool:
        """Whether the held-out model error is within ``ERROR_BOUND``:
        the cross-validation on one socket (vacuous when skipped), the
        holdout screening MAE on islands."""
        if self.islands:
            return self.screening_mae <= ERROR_BOUND
        return self.validation is None or self.validation.within_bound

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


def _carves(cand: Candidate, topology: IslandTopology) -> bool:
    try:
        check_geometry(topology, cand.n_cores, cand.l2_banks)
    except ValueError:
        return False
    return True


def explore(
    exp: Experiment,
    budget_mm2: float | None = None,
    kinds: tuple[str, ...] = KINDS,
    model: CalibratedModel | None = None,
    quick: bool = False,
    confirm_top: int | None = None,
    validate: bool = True,
    jobs: int | None = None,
    sockets: tuple[int, ...] = (1,),
    placements: tuple[str, ...] = (DEFAULT_PLACEMENT,),
    remote_l2_latency: float = 3.0,
    remote_mem_latency: float = 1.5,
) -> ExploreReport:
    """Run the full screen-and-confirm loop.

    Args:
        exp: The memoizing experiment (cache + parallel fan-out).
        budget_mm2: Equal-area budget; None picks the canonical
            (or, with ``quick``, the CI smoke) budget.
        kinds: Workload kinds to explore.
        model: A pre-fitted model; None fits one against ``exp``.
        quick: CI smoke mode — smaller budget and confirmation set.
        confirm_top: One socket: frontier points to confirm per kind
            (None: 4, or 2 in quick mode), on top of the anchors.
        validate: One socket: also cross-validate the model on the
            held-out golden-figure sizes (the reported error bound).
        jobs: Worker fan-out for calibration/confirmation batches.
        sockets: Socket counts to explore.  Any count above one makes
            this an islands exploration, anchored at every count.
        placements: Placement policies explored at every socket count.
        remote_l2_latency: Cross-island L2 latency multiplier.
        remote_mem_latency: Cross-island memory latency multiplier.

    Raises:
        ValueError: before any simulation, for a bad budget or
            topology, a placement some socket count cannot host, or a
            socket count that leaves a camp without candidates.
    """
    if budget_mm2 is None:
        budget_mm2 = quick_budget_mm2() if quick else default_budget_mm2()
    if confirm_top is None:
        confirm_top = 2 if quick else 4

    # Validate every input before spending simulator time on fitting.
    candidates = enumerate_candidates(budget_mm2)
    topos = {s: IslandTopology(n_sockets=s,
                               remote_l2_latency=remote_l2_latency,
                               remote_mem_latency=remote_mem_latency)
             for s in sockets}
    carved: dict[int, list[Candidate]] = {}
    for s, topo in topos.items():
        for placement in placements:
            check_placement(placement, topo)
        carved[s] = [c for c in candidates if _carves(c, topo)]
        missing = sorted(set(CAMPS) - {c.camp for c in carved[s]})
        if missing:
            where = "in-budget" if s == 1 else f"{s}-socket"
            raise ValueError(
                f"budget {budget_mm2:g} mm^2 leaves no {where} candidates "
                f"for camp(s) {missing}")
    islands = any(topo.active for topo in topos.values())
    # One-socket chips carry no topology, so their RunSpecs and cache
    # keys are the pre-island ones.
    chips = {s: topo if topo.active else None for s, topo in topos.items()}

    if model is None:
        model = calibrate.fit(exp, kinds=kinds, jobs=jobs)
    validation = (calibrate.cross_validate(exp, model, kinds=kinds, jobs=jobs)
                  if validate and not islands else None)

    # ---- screen (pure model, microseconds per point) ------------------ #
    t0 = time.monotonic()
    cells: dict[tuple, list[ScreenRow]] = {}
    for s, chip in chips.items():
        for kind in kinds:
            for placement in placements:
                for cand in carved[s]:
                    pred = model.predict(cand.config(exp.scale, chip), kind,
                                         "saturated", placement=placement)
                    cells.setdefault((kind, s, placement, cand.camp),
                                     []).append(ScreenRow(
                        candidate=cand, kind=kind,
                        predicted_ipc=pred.ipc, utilization=pred.utilization,
                        sockets=s, placement=placement))
    screen_seconds = time.monotonic() - t0

    report = ExploreReport(
        budget_mm2=budget_mm2, scale=exp.scale, islands=islands,
        remote_l2_latency=remote_l2_latency,
        remote_mem_latency=remote_mem_latency,
        candidates={s: len(cs) for s, cs in carved.items()},
        n_screened=sum(len(rows) for rows in cells.values()),
        screen_seconds=screen_seconds,
        validation=validation,
    )

    def spec(row: ScreenRow, regime: str) -> RunSpec:
        return RunSpec(row.candidate.config(exp.scale, chips[row.sockets]),
                       row.kind, regime, placement=row.placement)

    def confirm(row: ScreenRow, metric: str, predicted: float,
                measured: float, role: str) -> ConfirmRow:
        cand = row.candidate
        fields = dict(label=cand.label, kind=row.kind, camp=cand.camp,
                      area_mm2=cand.total_mm2, metric=metric,
                      predicted=predicted, measured=measured)
        if islands:
            return IslandConfirmRow(**fields, sockets=row.sockets,
                                    placement=row.placement, role=role)
        return ConfirmRow(**fields)

    # ---- anchors: simulate each cell's predicted best chip ------------ #
    # A stable sort: on a tie the first-enumerated candidate ranks first.
    ranked = {cell: sorted(rows, key=lambda r: -r.predicted_ipc)
              for cell, rows in sorted(cells.items())}
    anchors = {cell: rows[0] for cell, rows in ranked.items()}
    sims = exp.run_many([spec(r, "saturated") for r in anchors.values()],
                        jobs=jobs)
    measured = {cell: sim.ipc for cell, sim in zip(anchors, sims)}

    # ---- winners: best measured anchor per (kind, sockets, camp) ------ #
    winners: dict[tuple, tuple] = {}
    for cell, ipc in measured.items():  # a tie keeps the first placement
        kind, s, _, camp = cell
        best = winners.get((kind, s, camp))
        if best is None or ipc > measured[best]:
            winners[(kind, s, camp)] = cell
    anchor_rows = {cell: confirm(row, "ipc", row.predicted_ipc,
                                 measured[cell], "anchor")
                   for cell, row in anchors.items()}
    report.winners = [anchor_rows[winners[key]] for key in sorted(winners)]

    # ---- the extra saturated confirmations, with their predictions --- #
    if islands:
        # Each winning cell's runner-up, predicted with the correction
        # its anchor measured.
        extra = []
        for cell in sorted(winners.values()):
            if len(ranked[cell]) > 1:
                raw = anchors[cell].predicted_ipc
                correction = measured[cell] / raw if raw else 1.0
                row = ranked[cell][1]
                extra.append((row, row.predicted_ipc * correction))
        report.confirmed.extend(anchor_rows.values())
    else:
        report.frontier = {
            kind: _pareto([r for (k, *_), rows in cells.items()
                           if k == kind for r in rows])
            for kind in kinds}
        chosen: dict[tuple[str, Candidate], ScreenRow] = {}
        for kind in kinds:
            top = sorted(report.frontier[kind],
                         key=lambda r: -r.predicted_ipc)[:confirm_top]
            for row in top:
                chosen[(row.kind, row.candidate)] = row
        for row in anchors.values():
            chosen[(row.kind, row.candidate)] = row
        extra = [(chosen[kc], chosen[kc].predicted_ipc) for kc in sorted(
            chosen, key=lambda kc: (kc[0], kc[1].camp, kc[1].total_mm2))]

    winner_rows = [anchors[winners[key]] for key in sorted(winners)]
    unsat_specs = [spec(r, "unsaturated") for r in winner_rows]
    sims = exp.run_many([spec(r, "saturated") for r, _ in extra]
                        + unsat_specs, jobs=jobs)
    for (row, predicted), sim in zip(extra, sims):
        report.confirmed.append(confirm(row, "ipc", predicted, sim.ipc,
                                        "holdout"))

    # ---- the paper's claims, per socket count ------------------------- #
    responses: dict[tuple, float] = {}
    for key, row, run, sim in zip(sorted(winners), winner_rows, unsat_specs,
                                  sims[len(extra):]):
        pred = model.predict(run.config, row.kind, "unsaturated",
                             placement=row.placement)
        responses[key] = sim.response_cycles
        report.unsaturated.append(confirm(
            row, "response_cycles", pred.response_cycles,
            sim.response_cycles, "unsaturated"))

    for s in sockets:
        for kind in kinds:
            name = f"{kind} @ {s}s" if islands else kind
            fc, lc = (winners[(kind, s, camp)] for camp in CAMPS)
            report.checks[f"{name}: lean wins saturated throughput"] = (
                measured[lc] > measured[fc])
            report.checks[f"{name}: fat wins unsaturated response"] = (
                responses[(kind, s, "fc")] < responses[(kind, s, "lc")])
    return report


def format_explore(report: ExploreReport) -> str:
    """Human-readable exploration report (the ``repro explore`` output)."""
    islands = report.islands
    if islands:
        counts = ", ".join(f"{n} @ {s}s"
                           for s, n in sorted(report.candidates.items()))
        header = (
            f"island design space under {report.budget_mm2:.1f} mm^2 "
            f"(scale {report.scale:g}): {counts} candidates; model screened "
            f"{report.n_screened} cells in {report.screen_seconds:.2f}s "
            f"(remote L2 x{report.remote_l2_latency:g}, "
            f"mem x{report.remote_mem_latency:g})")
    else:
        header = (
            f"design space: {report.n_candidates} candidates under "
            f"{report.budget_mm2:.1f} mm^2 (scale {report.scale:g}); "
            f"model screened {report.n_screened} points in "
            f"{report.screen_seconds:.2f}s")
    lines = [header, ""]
    for kind, frontier in report.frontier.items():
        rows = [[r.candidate.label, f"{r.candidate.total_mm2:.1f}",
                 r.predicted_ipc, f"{r.utilization:.0%}"]
                for r in frontier]
        lines.append(format_table(
            ["config", "mm^2", "pred IPC", "L2 util"], rows,
            title=f"predicted Pareto frontier — {kind} (saturated)"))
        lines.append("")
    if islands:
        win_rows = [[f"{w.sockets}s", w.kind, w.camp, w.placement,
                     w.label, w.measured]
                    for w in report.winners]
        lines.append(format_table(
            ["sockets", "kind", "camp", "placement", "config", "IPC"],
            win_rows, title="best measured chip per (kind, sockets, camp)"))
        lines.append("")

    # A row is placed by its area on one socket, by its sockets and
    # placement (and, when confirmed, its role) on islands.
    def place(r: ConfirmRow, role: bool) -> list:
        if not islands:
            return [f"{r.area_mm2:.1f}"]
        return [f"{r.sockets}s", r.placement] + ([r.role] if role else [])

    def table(rows: list[ConfirmRow], role: bool, title: str) -> str:
        where = (["sockets", "placement"] + (["role"] if role else [])
                 if islands else ["mm^2"])
        return format_table(
            ["config", "kind", *where, "model", "simulator", "error"],
            [[r.label, r.kind, *place(r, role), r.predicted, r.measured,
              f"{r.rel_error:+.1%}"] for r in rows], title=title)

    lines.append(table(
        report.confirmed, True,
        "simulator-confirmed " + ("island cells" if islands else "frontier")
        + " (saturated IPC)"))
    if islands:
        lines.append(
            f"screening MAE on holdout set: {report.screening_mae:.1%} "
            f"(bound {ERROR_BOUND:.0%}: "
            f"{'ok' if report.within_bound else 'FAIL'})")
    else:
        lines.append(f"screening MAE on confirmed set: "
                     f"{report.screening_mae:.1%}")
    lines.append("")
    lines.append(table(
        report.unsaturated, False,
        ("winners re-run in response mode" if islands
         else "best chip per camp, response mode")
        + " (cycles, lower wins)"))
    lines.append("")
    for name, ok in report.checks.items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
    if report.validation is not None:
        lines.append("")
        lines.append(format_model_validation(report.validation))
    return "\n".join(lines)
