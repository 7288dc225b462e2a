"""The paper's taxonomy: CMP camps x workload regimes (Section 2, Table 1).

Two axes organize the whole study:

- **Camp** — fat (wide out-of-order, few contexts) vs. lean (narrow
  in-order, many contexts).  Table 1 of the paper, reproduced by
  :func:`table1`.
- **Regime** — unsaturated (idle hardware contexts exist; response time is
  the metric) vs. saturated (every context always finds work; throughput
  is the metric).

:func:`grid` enumerates the four camp x regime cells (times two workload
kinds = the eight bars of Figure 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..simulator.cores import fat_core_params, lean_core_params


class Camp(enum.Enum):
    """Chip-multiprocessor design camps (Section 2.1)."""

    FAT = "fc"
    LEAN = "lc"


class Regime(enum.Enum):
    """Workload saturation regimes (Section 2.2)."""

    UNSATURATED = "unsaturated"
    SATURATED = "saturated"

    @property
    def metric(self) -> str:
        """The paper's performance metric for this regime."""
        if self is Regime.UNSATURATED:
            return "response_time"
        return "throughput"


class WorkloadKind(enum.Enum):
    """Benchmark families (Section 3)."""

    OLTP = "oltp"
    DSS = "dss"


@dataclass(frozen=True)
class CampTraits:
    """One row-set of Table 1.

    Attributes mirror the table's axes; ``core_size_ratio`` expresses
    "Large (3 x LC size)" as a number.
    """

    camp: Camp
    issue_width: str
    execution_order: str
    pipeline_depth: str
    hardware_threads: str
    core_size_ratio: float


def table1() -> list[CampTraits]:
    """The paper's Table 1, as data."""
    fc = fat_core_params()
    lc = lean_core_params()
    return [
        CampTraits(
            camp=Camp.FAT,
            issue_width=f"Wide ({fc.issue_width}+)",
            execution_order="Out-of-order",
            pipeline_depth=f"Deep ({fc.pipeline_depth}+ stages)",
            hardware_threads=f"Few ({fc.n_contexts}-2)",
            core_size_ratio=3.0,
        ),
        CampTraits(
            camp=Camp.LEAN,
            issue_width=f"Narrow (1 or {lc.issue_width})",
            execution_order="In-order",
            pipeline_depth=f"Shallow (5-{lc.pipeline_depth} stages)",
            hardware_threads=f"Many ({lc.n_contexts}+)",
            core_size_ratio=1.0,
        ),
    ]


@dataclass(frozen=True)
class Cell:
    """One cell of the characterization grid."""

    camp: Camp
    regime: Regime
    kind: WorkloadKind

    @property
    def label(self) -> str:
        """Short display label, e.g. ``"FC/OLTP/saturated"``."""
        return f"{self.camp.value.upper()}/{self.kind.value.upper()}/{self.regime.value}"


def grid() -> list[Cell]:
    """The eight camp x regime x workload cells of Figure 5, in the
    figure's left-to-right order (unsaturated first, FC before LC)."""
    cells = []
    for regime in (Regime.UNSATURATED, Regime.SATURATED):
        for kind in (WorkloadKind.OLTP, WorkloadKind.DSS):
            for camp in (Camp.FAT, Camp.LEAN):
                cells.append(Cell(camp=camp, regime=regime, kind=kind))
    return cells
