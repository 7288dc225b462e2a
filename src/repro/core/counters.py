"""pmcount-style hardware counters over simulation results.

The paper validates FLEXUS by extracting Power5 hardware counters through
``pmcount`` and post-processing them into a CPI stack.  This module is that
interface for our simulator: raw event counters named in the Power PMU
idiom, plus the same derived CPI-stack computation the IBM scripts perform.
"""

from __future__ import annotations

from ..simulator.hierarchy import COH, L1, L1X, L2, MEM
from ..simulator.machine import MachineResult
from .breakdown import Breakdown

#: Counter mnemonics (Power5 PMU idiom).
PM_CYC = "PM_CYC"
PM_INST_CMPL = "PM_INST_CMPL"
PM_LD_REF = "PM_LD_REF"
PM_LD_MISS_L1 = "PM_LD_MISS_L1"
PM_DATA_FROM_L2 = "PM_DATA_FROM_L2"
PM_DATA_FROM_L21 = "PM_DATA_FROM_L21"   # another core's L1/L2 on chip
PM_DATA_FROM_MEM = "PM_DATA_FROM_MEM"
PM_DATA_FROM_RMEM = "PM_DATA_FROM_RMEM"  # remote node (coherence)
PM_INST_FETCH_L2 = "PM_INST_FETCH_L2"
PM_L2_QUEUE_CYC = "PM_L2_QUEUE_CYC"


def extract(result: MachineResult) -> dict[str, int]:
    """Raw counters for one measurement window."""
    hs = result.hier_stats
    return {
        PM_CYC: int(result.elapsed),
        PM_INST_CMPL: result.retired,
        PM_LD_REF: hs.data_accesses,
        PM_LD_MISS_L1: hs.data_accesses - hs.data_level_counts[L1],
        PM_DATA_FROM_L2: hs.data_level_counts[L2],
        PM_DATA_FROM_L21: hs.data_level_counts[L1X],
        PM_DATA_FROM_MEM: hs.data_level_counts[MEM],
        PM_DATA_FROM_RMEM: hs.data_level_counts[COH],
        PM_INST_FETCH_L2: hs.instr_level_counts[L2],
        PM_L2_QUEUE_CYC: hs.l2_queue_delay,
    }


def cpi(result: MachineResult) -> float:
    """Average per-core cycles per instruction."""
    return result.cpi


def cpi_stack(result: MachineResult) -> dict[str, float]:
    """The four-component CPI stack of Fig. 3 (per instruction)."""
    per_instr = result.breakdown.per_instruction(max(1, result.retired))
    return {
        "computation": per_instr.computation,
        "i_stalls": per_instr.i_stalls,
        "d_stalls": per_instr.d_stalls,
        "other": per_instr.other,
    }


def cpi_stack_from_breakdown(breakdown: Breakdown,
                             instructions: int) -> dict[str, float]:
    """Same stack computed from an explicit breakdown + instruction count."""
    per_instr = breakdown.per_instruction(max(1, instructions))
    return {
        "computation": per_instr.computation,
        "i_stalls": per_instr.i_stalls,
        "d_stalls": per_instr.d_stalls,
        "other": per_instr.other,
    }


def miss_rates(result: MachineResult) -> dict[str, float]:
    """Derived per-reference miss ratios (post-processing-script style)."""
    c = extract(result)
    refs = max(1, c[PM_LD_REF])
    return {
        "l1d_miss_rate": c[PM_LD_MISS_L1] / refs,
        "l2_fraction": c[PM_DATA_FROM_L2] / refs,
        "onchip_transfer_fraction": c[PM_DATA_FROM_L21] / refs,
        "offchip_fraction": (c[PM_DATA_FROM_MEM] + c[PM_DATA_FROM_RMEM])
        / refs,
        "l2_miss_rate": result.l2_miss_rate,
    }
