"""Design-space explorer: screen with the model, confirm with the simulator.

The paper compares a handful of hand-picked configurations; this package
walks the whole (camp, cores, L2 size, banks) space under an equal-area
silicon budget, with sockets and placement as one more axis
(DESIGN.md §10.3, §15.4):

1. **Enumerate** every candidate whose :mod:`repro.simulator.area`
   accounting fits the budget (and, on islands, whose cores and banks
   carve into the sockets).
2. **Screen** all of them with the calibrated :mod:`repro.model`
   (microseconds per point), per (kind, sockets, placement, camp) cell.
3. **Confirm** with real simulator runs through the existing
   parallel/cache/telemetry machinery: each cell's predicted best chip,
   the best measured one per camp in response mode too, and either the
   top of the predicted Pareto frontier (one socket) or each winning
   cell's runner-up against the anchored correction (islands).  The
   report carries the model-vs-simulator screening error and checks the
   paper's qualitative claims per socket count (lean camp wins
   saturated throughput at equal area; fat camp wins unsaturated
   response time).
"""

from .explorer import (
    ConfirmRow,
    ExploreReport,
    IslandConfirmRow,
    explore,
    format_explore,
)
from .space import (
    DEFAULT_L2_BANKS,
    DEFAULT_L2_SIZES_MB,
    Candidate,
    default_budget_mm2,
    enumerate_candidates,
    quick_budget_mm2,
)

__all__ = [
    "Candidate",
    "ConfirmRow",
    "DEFAULT_L2_BANKS",
    "DEFAULT_L2_SIZES_MB",
    "ExploreReport",
    "IslandConfirmRow",
    "default_budget_mm2",
    "enumerate_candidates",
    "explore",
    "format_explore",
    "quick_budget_mm2",
]
