"""Island-aware design-space exploration (DESIGN.md §15).

Adds a ``sockets x placement`` axis to the prune-then-confirm loop:
the same equal-area candidate grid is re-screened on multi-socket
hardware-islands machines under every placement policy, and the paper's
two qualitative claims are re-checked per socket count.

Because the analytical model's island generalization is first-order
(a uniform cross-island traffic fraction), screening is *anchored*:
per (kind, sockets, placement, camp) cell the raw-model argmax
candidate is simulated and the measured/predicted ratio becomes that
cell's correction factor.  The runner-up of each winning cell is then
confirmed with the *corrected* model — those holdout rows are the
genuine screening error the report gates on (``ERROR_BOUND``, the
study-wide 15% bound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.experiment import Experiment, RunSpec
from ..core.reporting import format_table
from ..model import calibrate
from ..model.calibrate import ERROR_BOUND, KINDS, CalibratedModel
from ..simulator.topology import PLACEMENTS, IslandTopology
from .space import Candidate, default_budget_mm2, enumerate_candidates, \
    quick_budget_mm2

#: Socket counts explored by default; ``quick`` keeps only the first.
ISLAND_SOCKETS = (2, 4)
QUICK_SOCKETS = (2,)


@dataclass(frozen=True)
class IslandScreenRow:
    """One model evaluation of one candidate in one island cell."""

    candidate: Candidate
    kind: str
    sockets: int
    placement: str
    raw_ipc: float


@dataclass(frozen=True)
class IslandConfirmRow:
    """A simulator-confirmed island point.

    ``role`` is ``"anchor"`` (the cell's raw-model argmax — its
    measurement *defines* the cell correction, so its error is the raw
    model's), ``"holdout"`` (the winning cell's runner-up, predicted
    with the corrected model — genuine screening error), or
    ``"unsaturated"`` (the winner re-run in response mode).
    """

    label: str
    kind: str
    camp: str
    sockets: int
    placement: str
    role: str
    metric: str
    predicted: float
    measured: float

    @property
    def rel_error(self) -> float:
        if not self.measured:
            return float("inf") if self.predicted else 0.0
        return (self.predicted - self.measured) / self.measured


@dataclass(frozen=True)
class IslandWinner:
    """Best measured candidate+placement per (kind, sockets, camp)."""

    kind: str
    sockets: int
    camp: str
    placement: str
    label: str
    ipc: float


@dataclass
class IslandsReport:
    """Everything one island exploration produced.

    ``checks`` carries the paper's two equal-area claims re-stated per
    socket count, e.g. ``"oltp @ 2s: lean wins saturated throughput"``.
    ``screening_mae`` is the mean absolute corrected-model error over
    the holdout rows (the anchors fix the corrections, so they are
    excluded); the CLI gates on it staying within ``model_bound``.
    """

    budget_mm2: float
    scale: float
    sockets: tuple[int, ...]
    placements: tuple[str, ...]
    remote_l2_latency: float
    remote_mem_latency: float
    n_candidates: dict[int, int] = field(default_factory=dict)
    n_screened: int = 0
    screen_seconds: float = 0.0
    winners: list[IslandWinner] = field(default_factory=list)
    confirmed: list[IslandConfirmRow] = field(default_factory=list)
    unsaturated: list[IslandConfirmRow] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    model_bound: float = ERROR_BOUND

    @property
    def holdouts(self) -> list[IslandConfirmRow]:
        return [r for r in self.confirmed if r.role == "holdout"]

    @property
    def screening_mae(self) -> float:
        rows = self.holdouts
        if not rows:
            return 0.0
        return sum(abs(r.rel_error) for r in rows) / len(rows)

    @property
    def within_bound(self) -> bool:
        return self.screening_mae <= self.model_bound

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values()) if self.checks else False


def candidate_supports(cand: Candidate, topology: IslandTopology) -> bool:
    """Whether a candidate's geometry can be carved into these islands
    (cores tile into power-of-two islands; banks divide evenly)."""
    try:
        topology.island_cores(cand.n_cores)
        topology.island_banks(cand.l2_banks)
    except ValueError:
        return False
    return True


def explore_islands(
    exp: Experiment,
    budget_mm2: float | None = None,
    sockets: tuple[int, ...] | None = None,
    placements: tuple[str, ...] = PLACEMENTS,
    kinds: tuple[str, ...] = KINDS,
    model: CalibratedModel | None = None,
    quick: bool = False,
    remote_l2_latency: float = 3.0,
    remote_mem_latency: float = 1.5,
    jobs: int | None = None,
) -> IslandsReport:
    """Run the anchored sockets-x-placement exploration.

    Args:
        exp: The memoizing experiment (cache + parallel fan-out).
        budget_mm2: Equal-area budget; None picks the canonical
            (or, with ``quick``, the CI smoke) budget.
        sockets: Socket counts to explore; None picks
            ``ISLAND_SOCKETS`` (or ``QUICK_SOCKETS`` with ``quick``).
        placements: Placement policies per socket count.
        kinds: Workload kinds to explore.
        model: A pre-fitted model; None fits one against ``exp``.
        quick: CI smoke mode — smaller budget, 2 sockets only.
        remote_l2_latency: Cross-island L2 latency multiplier.
        remote_mem_latency: Cross-island memory latency multiplier.
        jobs: Worker fan-out for the confirmation batches.
    """
    if budget_mm2 is None:
        budget_mm2 = quick_budget_mm2() if quick else default_budget_mm2()
    if sockets is None:
        sockets = QUICK_SOCKETS if quick else ISLAND_SOCKETS

    candidates = enumerate_candidates(budget_mm2)
    topos = {s: IslandTopology(n_sockets=s,
                               remote_l2_latency=remote_l2_latency,
                               remote_mem_latency=remote_mem_latency)
             for s in sockets}
    by_sockets: dict[int, list[Candidate]] = {}
    for s, topo in topos.items():
        fit_cands = [c for c in candidates if candidate_supports(c, topo)]
        camps_present = {c.camp for c in fit_cands}
        if camps_present != {"fc", "lc"}:
            missing = sorted({"fc", "lc"} - camps_present)
            raise ValueError(
                f"budget {budget_mm2:g} mm^2 leaves no {s}-socket "
                f"candidates for camp(s) {missing}")
        by_sockets[s] = fit_cands

    if model is None:
        model = calibrate.fit(exp, kinds=kinds, jobs=jobs)

    report = IslandsReport(
        budget_mm2=budget_mm2, scale=exp.scale,
        sockets=tuple(sockets), placements=tuple(placements),
        remote_l2_latency=remote_l2_latency,
        remote_mem_latency=remote_mem_latency,
        n_candidates={s: len(cs) for s, cs in by_sockets.items()},
    )

    # ---- screen every island cell (pure model) ------------------------ #
    t0 = time.monotonic()
    cells: dict[tuple, list[IslandScreenRow]] = {}
    for s, topo in topos.items():
        for kind in kinds:
            for placement in placements:
                for cand in by_sockets[s]:
                    config = cand.config(exp.scale, topo)
                    pred = model.predict(config, kind, "saturated",
                                         placement=placement)
                    cell = (kind, s, placement, cand.camp)
                    cells.setdefault(cell, []).append(IslandScreenRow(
                        candidate=cand, kind=kind, sockets=s,
                        placement=placement, raw_ipc=pred.ipc))
                    report.n_screened += 1
    for rows in cells.values():
        rows.sort(key=lambda r: -r.raw_ipc)
    report.screen_seconds = time.monotonic() - t0

    # ---- anchors: simulate each cell's raw-model argmax --------------- #
    def spec_for(row: IslandScreenRow, regime: str) -> RunSpec:
        return RunSpec(row.candidate.config(exp.scale, topos[row.sockets]),
                       row.kind, regime, placement=row.placement)

    anchors = {cell: rows[0] for cell, rows in cells.items()}
    exp.prefetch([spec_for(r, "saturated") for r in anchors.values()],
                 jobs=jobs)
    measured: dict[tuple, float] = {}
    corrections: dict[tuple, float] = {}
    for cell, row in sorted(anchors.items()):
        sim = exp.run(row.candidate.config(exp.scale, topos[row.sockets]),
                      row.kind, "saturated", placement=row.placement)
        measured[cell] = sim.ipc
        corrections[cell] = (sim.ipc / row.raw_ipc) if row.raw_ipc else 1.0
        report.confirmed.append(IslandConfirmRow(
            label=row.candidate.label, kind=row.kind,
            camp=row.candidate.camp, sockets=row.sockets,
            placement=row.placement, role="anchor", metric="ipc",
            predicted=row.raw_ipc, measured=sim.ipc))

    # ---- winners: best measured placement per (kind, sockets, camp) --- #
    win_cells: dict[tuple, tuple] = {}
    for cell, ipc in measured.items():
        kind, s, placement, camp = cell
        key = (kind, s, camp)
        if key not in win_cells or ipc > measured[win_cells[key]]:
            win_cells[key] = cell
    for key in sorted(win_cells):
        cell = win_cells[key]
        kind, s, placement, camp = cell
        report.winners.append(IslandWinner(
            kind=kind, sockets=s, camp=camp, placement=placement,
            label=anchors[cell].candidate.label, ipc=measured[cell]))

    # ---- holdouts: corrected-model check on each winner's runner-up --- #
    holdout_rows = {cell: cells[cell][1] for cell in win_cells.values()
                    if len(cells[cell]) > 1}
    unsat_rows = {key: anchors[cell] for key, cell in win_cells.items()}
    exp.prefetch(
        [spec_for(r, "saturated") for r in holdout_rows.values()]
        + [spec_for(r, "unsaturated") for r in unsat_rows.values()],
        jobs=jobs)

    for cell, row in sorted(holdout_rows.items()):
        sim = exp.run(row.candidate.config(exp.scale, topos[row.sockets]),
                      row.kind, "saturated", placement=row.placement)
        report.confirmed.append(IslandConfirmRow(
            label=row.candidate.label, kind=row.kind,
            camp=row.candidate.camp, sockets=row.sockets,
            placement=row.placement, role="holdout", metric="ipc",
            predicted=row.raw_ipc * corrections[cell], measured=sim.ipc))

    # ---- the paper's claims, re-checked per socket count -------------- #
    responses: dict[tuple, float] = {}
    for key, row in sorted(unsat_rows.items()):
        config = row.candidate.config(exp.scale, topos[row.sockets])
        sim = exp.run(config, row.kind, "unsaturated",
                      placement=row.placement)
        pred = model.predict(config, row.kind, "unsaturated",
                             placement=row.placement)
        responses[key] = sim.response_cycles
        report.unsaturated.append(IslandConfirmRow(
            label=row.candidate.label, kind=row.kind,
            camp=row.candidate.camp, sockets=row.sockets,
            placement=row.placement, role="unsaturated",
            metric="response_cycles",
            predicted=pred.response_cycles, measured=sim.response_cycles))

    for s in sockets:
        for kind in kinds:
            lc_ipc = measured[win_cells[(kind, s, "lc")]]
            fc_ipc = measured[win_cells[(kind, s, "fc")]]
            report.checks[
                f"{kind} @ {s}s: lean wins saturated throughput"] = (
                    lc_ipc > fc_ipc)
            report.checks[
                f"{kind} @ {s}s: fat wins unsaturated response"] = (
                    responses[(kind, s, "fc")] < responses[(kind, s, "lc")])
    return report


def format_islands(report: IslandsReport) -> str:
    """Human-readable island exploration report
    (the ``repro explore --islands`` output)."""
    counts = ", ".join(f"{n} @ {s}s"
                       for s, n in sorted(report.n_candidates.items()))
    lines = [
        f"island design space under {report.budget_mm2:.1f} mm^2 "
        f"(scale {report.scale:g}): {counts} candidates; model screened "
        f"{report.n_screened} cells in {report.screen_seconds:.2f}s "
        f"(remote L2 x{report.remote_l2_latency:g}, "
        f"mem x{report.remote_mem_latency:g})",
        "",
    ]
    win_rows = [[f"{w.sockets}s", w.kind, w.camp, w.placement,
                 w.label, w.ipc]
                for w in report.winners]
    lines.append(format_table(
        ["sockets", "kind", "camp", "placement", "config", "IPC"],
        win_rows, title="best measured chip per (kind, sockets, camp)"))
    lines.append("")
    conf_rows = [[r.label, r.kind, f"{r.sockets}s", r.placement, r.role,
                  r.predicted, r.measured, f"{r.rel_error:+.1%}"]
                 for r in report.confirmed]
    lines.append(format_table(
        ["config", "kind", "sockets", "placement", "role",
         "model", "simulator", "error"],
        conf_rows, title="simulator-confirmed island cells (saturated IPC)"))
    lines.append(
        f"screening MAE on holdout set: {report.screening_mae:.1%} "
        f"(bound {report.model_bound:.0%}: "
        f"{'ok' if report.within_bound else 'FAIL'})")
    lines.append("")
    unsat_rows = [[r.label, r.kind, f"{r.sockets}s", r.placement,
                   r.predicted, r.measured, f"{r.rel_error:+.1%}"]
                  for r in report.unsaturated]
    lines.append(format_table(
        ["config", "kind", "sockets", "placement",
         "model", "simulator", "error"],
        unsat_rows,
        title="winners re-run in response mode (cycles, lower wins)"))
    lines.append("")
    for name, ok in report.checks.items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return "\n".join(lines)
