"""Figure 3 validation: simulator CPI stack vs. the published hardware one.

The paper validates FLEXUS against an IBM OpenPower720 (Power5) running the
saturated DSS workload, comparing four-component CPI stacks extracted with
pmcount.  We have no Power5; the *published* Figure 3 breakdown is our
hardware reference (DESIGN.md §1 substitution), and the harness performs
the same comparison the paper does:

- overall CPI within a small tolerance,
- the simulated computation component a little *lower* than hardware
  (FLEXUS lacks Power5's instruction grouping/cracking overhead),
- the simulated data-stall component a little *higher* (no hardware
  prefetcher in the simulator).

Absolute CPI depends on the trace cost model, so the harness compares
*component shares* and reports both stacks side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simulator.configs import fc_cmp
from .counters import cpi_stack
from .experiment import Experiment
from .reporting import format_table

#: The OpenPower720 CPI stack as published in Figure 3 (values read off
#: the figure: total CPI ~1.2 for saturated DSS, computation the largest
#: component, data stalls next, instruction stalls visible, other small).
OPENPOWER720_DSS_CPI = {
    "computation": 0.50,
    "i_stalls": 0.17,
    "d_stalls": 0.38,
    "other": 0.15,
}

#: The FLEXUS stack from the same figure: ~5% lower total, computation 10%
#: lower, D-stalls 15% higher.
FLEXUS_DSS_CPI = {
    "computation": 0.45,
    "i_stalls": 0.16,
    "d_stalls": 0.44,
    "other": 0.12,
}


@dataclass
class ValidationReport:
    """Outcome of one validation run.

    Attributes:
        ours: Our simulator's CPI stack (per instruction).
        reference: The hardware reference stack.
        total_delta: Relative difference of total CPI (ours vs reference).
        share_deltas: Per-component difference of *shares* of total.
        comp_lower_than_hw: Whether computation share is lower than the
            hardware's (the direction the paper reports for FLEXUS).
        dstall_higher_than_hw: Whether the data-stall share is higher
            (ditto).
    """

    ours: dict[str, float]
    reference: dict[str, float]
    total_delta: float
    share_deltas: dict[str, float]
    comp_lower_than_hw: bool
    dstall_higher_than_hw: bool

    def shares(self, stack: dict[str, float]) -> dict[str, float]:
        """Component shares of a CPI stack."""
        total = sum(stack.values())
        return {k: v / total for k, v in stack.items()}

    def within(self, share_tolerance: float) -> bool:
        """True when every component share is within ``share_tolerance``
        (absolute) of the reference share."""
        return all(abs(d) <= share_tolerance
                   for d in self.share_deltas.values())


def validate(exp: Experiment,
             reference: dict[str, float] = OPENPOWER720_DSS_CPI
             ) -> ValidationReport:
    """Run the Fig. 3 comparison: saturated DSS on a Power5-class FC CMP.

    The OpenPower720 is a 2-socket Power5: 4 hardware threads over 2 cores
    with a ~1.9 MB on-chip L2; we use the canonical 4-core FC CMP with a
    2 MB L2, the nearest configuration in the studied design space.
    """
    config = fc_cmp(n_cores=4, l2_nominal_mb=2.0, scale=exp.scale,
                    mem_latency=120)  # the validation box has an off-chip
    # L3 behind its 1.9 MB L2; misses pay L3-class, not DRAM-class, time.
    result = exp.run(config, "dss", "saturated")
    ours = cpi_stack(result)
    ours_total = sum(ours.values())
    ref_total = sum(reference.values())
    ours_shares = {k: v / ours_total for k, v in ours.items()}
    ref_shares = {k: v / ref_total for k, v in reference.items()}
    share_deltas = {k: ours_shares[k] - ref_shares[k] for k in reference}
    return ValidationReport(
        ours=ours,
        reference=reference,
        total_delta=(ours_total - ref_total) / ref_total,
        share_deltas=share_deltas,
        comp_lower_than_hw=ours_shares["computation"]
        < ref_shares["computation"],
        dstall_higher_than_hw=ours_shares["d_stalls"]
        > ref_shares["d_stalls"],
    )


# ---------------------------------------------------------------------- #
# Model-vs-simulator validation (DESIGN.md §10.2)                         #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ModelErrorRow:
    """One held-out configuration: prediction vs. simulation.

    Attributes:
        config_name: The configuration label.
        kind: Workload kind.
        camp: Core camp.
        regime: Measurement regime.
        l2_nominal_mb: The held-out L2 size.
        predicted: Model-predicted metric value.
        measured: Simulator-measured metric value.
    """

    config_name: str
    kind: str
    camp: str
    regime: str
    l2_nominal_mb: float
    predicted: float
    measured: float

    @property
    def rel_error(self) -> float:
        """Signed relative error, ``(predicted - measured) / measured``."""
        if not self.measured:
            return float("inf") if self.predicted else 0.0
        return (self.predicted - self.measured) / self.measured


@dataclass
class ModelValidationReport:
    """Per-config relative errors *alongside* the aggregates.

    Attributes:
        metric: What was compared ("throughput (IPC)", ...).
        rows: One :class:`ModelErrorRow` per held-out configuration.
        bound: The acceptance bound on :attr:`mae`.
    """

    metric: str
    rows: list[ModelErrorRow] = field(default_factory=list)
    bound: float = 0.15

    @property
    def mae(self) -> float:
        """Mean absolute relative error across all rows."""
        if not self.rows:
            return 0.0
        return sum(abs(r.rel_error) for r in self.rows) / len(self.rows)

    @property
    def max_abs_error(self) -> float:
        """Worst-case absolute relative error."""
        return max((abs(r.rel_error) for r in self.rows), default=0.0)

    @property
    def within_bound(self) -> bool:
        """True when the aggregate MAE meets the acceptance bound."""
        return self.mae <= self.bound

    def by_group(self, key) -> dict[str, float]:
        """MAE per group, ``key(row) -> group label`` (e.g. by kind)."""
        groups: dict[str, list[float]] = {}
        for row in self.rows:
            groups.setdefault(key(row), []).append(abs(row.rel_error))
        return {g: sum(v) / len(v) for g, v in sorted(groups.items())}


def format_model_validation(report: ModelValidationReport) -> str:
    """The model-vs-simulator error table (``repro model validate``)."""
    rows = [
        [r.config_name, r.kind, r.regime, f"{r.l2_nominal_mb:g}",
         r.predicted, r.measured, f"{r.rel_error:+.1%}"]
        for r in sorted(report.rows,
                        key=lambda r: (r.kind, r.camp, r.l2_nominal_mb))
    ]
    table = format_table(
        ["config", "kind", "regime", "L2 MB", "model", "simulator", "error"],
        rows,
        title=f"analytical model vs. simulator — {report.metric} "
              f"(held-out configs)",
    )
    by_kind = "  ".join(f"{k}={v:.1%}"
                        for k, v in report.by_group(
                            lambda r: r.kind).items())
    verdict = "PASS" if report.within_bound else "FAIL"
    return (f"{table}\n"
            f"MAE {report.mae:.1%} (bound {report.bound:.0%}, "
            f"max {report.max_abs_error:.1%}, per-kind: {by_kind}) "
            f"-> {verdict}")


def validate_model(exp: Experiment, model=None,
                   jobs: int | None = None) -> ModelValidationReport:
    """Fit (unless given) and cross-validate the analytical model on the
    held-out golden-figure sizes — the ``repro model validate`` driver.
    """
    # Imported lazily: repro.model depends on this module's report types.
    from ..model import calibrate

    if model is None:
        model = calibrate.fit(exp, jobs=jobs)
    return calibrate.cross_validate(exp, model, jobs=jobs)
