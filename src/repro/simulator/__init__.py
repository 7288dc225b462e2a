"""Trace-driven CMP/SMP timing simulator — the study's FLEXUS analog.

Public surface:

- :mod:`repro.simulator.addresses` — synthetic address space.
- :mod:`repro.simulator.trace` — per-context reference traces.
- :mod:`repro.simulator.cache` — set-associative caches.
- :mod:`repro.simulator.cacti` — latency/area model.
- :mod:`repro.simulator.hierarchy` — shared-L2 CMP hierarchy.
- :mod:`repro.simulator.coherence` — private-L2 MESI SMP hierarchy.
- :mod:`repro.simulator.cores` — fat/lean core timing models.
- :mod:`repro.simulator.machine` — warm/measure execution loop.
- :mod:`repro.simulator.configs` — canonical machine configurations.
- :mod:`repro.simulator.topology` — hardware-islands topologies.
"""

from .addresses import LINE_SIZE, PAGE_SIZE, AddressSpace, Region
from .area import AreaReport, area_report, equal_area_lean
from .cache import CacheStats, SetAssocCache
from .configs import (
    BASELINE_L2_MB,
    FIG6_L2_SIZES_MB,
    fc_cmp,
    fc_smp,
    lc_cmp,
)
from .cores import CoreParams, FatCore, LeanCore, fat_core_params, lean_core_params
from .hierarchy import (
    COH,
    L1,
    L1X,
    L2,
    LEVEL_NAMES,
    MEM,
    HierarchyParams,
    SharedL2Hierarchy,
)
from .coherence import PrivateL2Hierarchy
from .machine import Machine, MachineConfig, MachineResult
from .topology import (
    DEFAULT_PLACEMENT,
    PLACEMENTS,
    IslandTopology,
    validate_placement,
)
from .trace import (
    FLAG_CODE_JUMP,
    FLAG_DEPENDENT,
    FLAG_KERNEL,
    FLAG_WRITE,
    Trace,
    TraceBuilder,
    Workload,
)

__all__ = [
    "AddressSpace",
    "AreaReport",
    "area_report",
    "equal_area_lean",
    "BASELINE_L2_MB",
    "CacheStats",
    "COH",
    "CoreParams",
    "DEFAULT_PLACEMENT",
    "FatCore",
    "FIG6_L2_SIZES_MB",
    "FLAG_CODE_JUMP",
    "FLAG_DEPENDENT",
    "FLAG_KERNEL",
    "FLAG_WRITE",
    "HierarchyParams",
    "IslandTopology",
    "L1",
    "L1X",
    "L2",
    "LEVEL_NAMES",
    "LINE_SIZE",
    "LeanCore",
    "Machine",
    "MachineConfig",
    "MachineResult",
    "MEM",
    "PAGE_SIZE",
    "PLACEMENTS",
    "PrivateL2Hierarchy",
    "Region",
    "SetAssocCache",
    "SharedL2Hierarchy",
    "Trace",
    "TraceBuilder",
    "Workload",
    "fat_core_params",
    "fc_cmp",
    "fc_smp",
    "lc_cmp",
    "lean_core_params",
    "validate_placement",
]
