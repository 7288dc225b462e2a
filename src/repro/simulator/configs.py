"""Canonical machine configurations used throughout the study.

These builders encode the paper's experimental platforms (Section 3):

- ``fc_cmp`` — the fat-camp CMP: four (by default) aggressive 4-wide
  out-of-order cores over a shared on-chip L2.
- ``lc_cmp`` — the lean-camp CMP: four 2-issue in-order cores, 4 hardware
  contexts each (16 contexts total), identical memory subsystem.
- ``fc_smp`` — the traditional SMP baseline of Section 5.2: four fat
  processors with *private* L2s kept coherent with MESI.

All builders accept the study-wide ``scale`` knob (DESIGN.md §1): actual
cache capacity and workload footprint scale together while latencies follow
the *nominal* size, which keeps hit-rate-vs-nominal-size curves and timing
invariant and only shortens simulations.
"""

from __future__ import annotations

from .cores import fat_core_params, lean_core_params
from .hierarchy import HierarchyParams
from .machine import MachineConfig
from .topology import IslandTopology

#: The L2 sizes swept in Figure 6, in (nominal) megabytes.
FIG6_L2_SIZES_MB = (1.0, 2.0, 4.0, 8.0, 16.0, 26.0)

#: The baseline shared-L2 capacity of the Fig. 4/5 characterization.
BASELINE_L2_MB = 26.0


def _hier(
    n_cores: int,
    l2_nominal_mb: float,
    scale: float,
    const_latency: int | None,
    **overrides,
) -> HierarchyParams:
    params = HierarchyParams(
        n_cores=n_cores,
        l2_mb=l2_nominal_mb * scale,
        l2_nominal_mb=l2_nominal_mb,
        l2_latency=const_latency,
        **overrides,
    )
    return params


def fc_cmp(
    n_cores: int = 4,
    l2_nominal_mb: float = BASELINE_L2_MB,
    scale: float = 1.0,
    const_latency: int | None = None,
    topology: IslandTopology | None = None,
    **hier_overrides,
) -> MachineConfig:
    """Fat-camp CMP: ``n_cores`` 4-wide OoO cores, shared L2.

    Args:
        n_cores: Number of cores (Fig. 8 sweeps 4-16).
        l2_nominal_mb: Paper-labelled shared L2 capacity.
        scale: Study-wide scale factor (DESIGN.md §1).
        const_latency: Fix the L2 hit latency (the Fig. 6 "const" runs);
            None uses the Cacti model on the nominal size.
        topology: Optional hardware-islands topology (multi-socket);
            tagged into the name when active.
        **hier_overrides: Extra :class:`HierarchyParams` fields.
    """
    name = f"FC-CMP {n_cores}c x {l2_nominal_mb:g}MB"
    if const_latency is not None:
        name += f" (const {const_latency}cyc)"
    if topology is not None and topology.active:
        name += f" [{topology.describe()}]"
    return MachineConfig(
        name=name,
        core=fat_core_params(),
        hierarchy=_hier(n_cores, l2_nominal_mb, scale, const_latency,
                        **hier_overrides),
        topology=topology,
    )


def lc_cmp(
    n_cores: int = 4,
    l2_nominal_mb: float = BASELINE_L2_MB,
    scale: float = 1.0,
    const_latency: int | None = None,
    topology: IslandTopology | None = None,
    **hier_overrides,
) -> MachineConfig:
    """Lean-camp CMP: ``n_cores`` 2-issue in-order cores, 4 contexts each.

    Lean cores carry smaller L1s (Niagara-class), unless overridden.
    """
    name = f"LC-CMP {n_cores}c x {l2_nominal_mb:g}MB"
    if const_latency is not None:
        name += f" (const {const_latency}cyc)"
    if topology is not None and topology.active:
        name += f" [{topology.describe()}]"
    hier_overrides.setdefault("l1i_kb", 16)
    hier_overrides.setdefault("l1d_kb", 16)
    return MachineConfig(
        name=name,
        core=lean_core_params(),
        hierarchy=_hier(n_cores, l2_nominal_mb, scale, const_latency,
                        **hier_overrides),
        topology=topology,
    )


def fc_smp(
    n_nodes: int = 4,
    private_l2_nominal_mb: float = 4.0,
    scale: float = 1.0,
    **hier_overrides,
) -> MachineConfig:
    """Traditional SMP: ``n_nodes`` fat processors with private MESI L2s.

    The Fig. 7 baseline uses 4 nodes with 4 MB private L2s, compared against
    ``fc_cmp(4, l2_nominal_mb=16)``.
    """
    name = f"FC-SMP {n_nodes}p x {private_l2_nominal_mb:g}MB private"
    return MachineConfig(
        name=name,
        core=fat_core_params(),
        hierarchy=_hier(n_nodes, private_l2_nominal_mb, scale, None,
                        **hier_overrides),
        smp=True,
    )
