"""pmcount-style CPI stacks over simulation results.

The paper validates FLEXUS by extracting Power5 hardware counters through
``pmcount`` and post-processing them into a CPI stack.  This module is the
post-processing half for our simulator: the same derived CPI-stack
computation the IBM scripts perform, read off a simulated result.
"""

from __future__ import annotations

from ..simulator.machine import MachineResult


def cpi_stack(result: MachineResult) -> dict[str, float]:
    """The four-component CPI stack of Fig. 3 (per instruction)."""
    per_instr = result.breakdown.per_instruction(max(1, result.retired))
    return {
        "computation": per_instr.computation,
        "i_stalls": per_instr.i_stalls,
        "d_stalls": per_instr.d_stalls,
        "other": per_instr.other,
    }
