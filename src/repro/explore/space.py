"""Candidate enumeration under an equal-area silicon budget.

Reuses the study's own cost models — :mod:`repro.simulator.area` for core
silicon (Table 1's 3:1 fat:lean ratio) and :mod:`repro.simulator.cacti`
for L2 array area — so "equal area" here means exactly what Section 2.1
means by it.  Enumeration is exhaustive over a pinned grid and *pruned*
only by the budget; ranking is the model's job, not this module's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..simulator import cacti
from ..simulator.area import FAT_TO_LEAN_AREA_RATIO, LEAN_CORE_MM2, area_report
from ..simulator.configs import fc_cmp, lc_cmp
from ..simulator.machine import MachineConfig

#: Core-count sweep per camp.  The fat bound (10 cores = 360 mm^2 of
#: cores) and the lean bound (16 = Niagara-class integration) both
#: exceed any budget this study uses; the area filter does the pruning.
DEFAULT_CORE_COUNTS = {"fc": tuple(range(1, 11)), "lc": tuple(range(1, 17))}

#: L2 capacities swept (MB): the Fig. 6 points plus interior fills so
#: the frontier is not quantized to the golden sizes.
DEFAULT_L2_SIZES_MB = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 26.0)

#: L2 bank counts swept (power of two, the hierarchy's constraint).
DEFAULT_L2_BANKS = (2, 4, 8)

_BUILDERS = {"fc": fc_cmp, "lc": lc_cmp}


@dataclass(frozen=True)
class Candidate:
    """One point of the design space.

    Attributes:
        camp: Core camp ("fc" / "lc").
        n_cores: Core count.
        l2_nominal_mb: Shared-L2 capacity (paper-labelled MB).
        l2_banks: Shared-L2 bank count.
        core_mm2: Core silicon (all cores).
        l2_mm2: L2 array silicon.
    """

    camp: str
    n_cores: int
    l2_nominal_mb: float
    l2_banks: int
    core_mm2: float
    l2_mm2: float

    @property
    def total_mm2(self) -> float:
        return self.core_mm2 + self.l2_mm2

    @property
    def label(self) -> str:
        """A compact display label (bank count included — the config
        name builders do not carry it)."""
        return (f"{self.camp.upper()} {self.n_cores}c x "
                f"{self.l2_nominal_mb:g}MB/{self.l2_banks}b")

    def config(self, scale: float, topology=None) -> MachineConfig:
        """Instantiate the simulator configuration for this candidate.

        ``topology`` (an :class:`repro.simulator.IslandTopology` or
        None) carves the same silicon into hardware islands; the
        candidate's area accounting is unchanged by it.
        """
        return _BUILDERS[self.camp](
            n_cores=self.n_cores,
            l2_nominal_mb=self.l2_nominal_mb,
            scale=scale,
            l2_banks=self.l2_banks,
            topology=topology,
        )


def default_budget_mm2() -> float:
    """The study's canonical budget: the Section 5 baseline chip
    (4-core fat CMP with the 26 MB shared L2)."""
    return area_report(fc_cmp(n_cores=4)).total_mm2


def quick_budget_mm2() -> float:
    """The CI smoke budget: a 2-core fat chip with a 16 MB L2 — small
    enough that confirmation runs are cheap, large enough that the grid
    still holds well over 100 candidates."""
    return area_report(fc_cmp(n_cores=2, l2_nominal_mb=16.0)).total_mm2


def candidate_area(camp: str, n_cores: int, l2_nominal_mb: float) -> tuple:
    """(core_mm2, l2_mm2) from the study's own cost models."""
    per_core = (LEAN_CORE_MM2 * FAT_TO_LEAN_AREA_RATIO if camp == "fc"
                else LEAN_CORE_MM2)
    return n_cores * per_core, cacti.estimate(l2_nominal_mb).area_mm2


def enumerate_candidates(
    budget_mm2: float,
    core_counts: dict[str, tuple[int, ...]] | None = None,
    l2_sizes_mb: tuple[float, ...] = DEFAULT_L2_SIZES_MB,
    l2_banks: tuple[int, ...] = DEFAULT_L2_BANKS,
) -> list[Candidate]:
    """Every grid point whose total silicon fits ``budget_mm2``.

    Returns candidates in a deterministic order (camp, cores, size,
    banks) — the screening layer depends on stable ordering for
    reproducible tie-breaks.
    """
    if not 0 < budget_mm2 < math.inf:  # NaN compares false: lands here
        raise ValueError(
            f"budget must be finite and positive, got {budget_mm2}")
    counts = DEFAULT_CORE_COUNTS if core_counts is None else core_counts
    out: list[Candidate] = []
    for camp in sorted(counts):
        if camp not in _BUILDERS:
            raise ValueError(f"unknown camp {camp!r}")
        for n_cores in counts[camp]:
            for size in l2_sizes_mb:
                core_mm2, l2_mm2 = candidate_area(camp, n_cores, size)
                if core_mm2 + l2_mm2 > budget_mm2:
                    continue
                for banks in l2_banks:
                    out.append(Candidate(
                        camp=camp, n_cores=n_cores, l2_nominal_mb=size,
                        l2_banks=banks, core_mm2=core_mm2, l2_mm2=l2_mm2,
                    ))
    return out
