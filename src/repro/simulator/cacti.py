"""Analytic cache latency / area model (the paper's Cacti 4.2 stand-in).

The study needs cache access latency as a monotone, sub-linear function of
capacity, anchored at the values the paper quotes: ~4 cycles for the small
L2s of mid-90s processors (Pentium III), ~14 cycles for Power5-era multi-MB
caches, and >20 cycles at the 26 MB extreme.  A ``base + k * sqrt(size)``
fit captures exactly that (wire delay grows with the linear dimension of the
array, i.e. with the square root of area/capacity).

As in the paper, some experiments override the model ("const" latency runs
fix the L2 hit latency at 4 cycles regardless of size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Fit anchors: latency(1 MB) ~= 8 cycles, latency(26 MB) ~= 22 cycles.
_BASE_CYCLES = 4.6
_K_CYCLES_PER_SQRT_MB = 3.4

#: The paper's "unrealistically low" fixed hit latency (Section 5.1).
CONST_L2_LATENCY = 4

#: Off-chip memory latency in cycles (Power5/UltraSPARC-era DRAM round trip).
MEMORY_LATENCY = 300


@dataclass(frozen=True)
class CacheEstimate:
    """One Cacti-style query result.

    Attributes:
        size_mb: Capacity the estimate was computed for.
        latency_cycles: Hit latency in core cycles.
        area_mm2: Rough array area at a 90 nm-class node.
        dynamic_nj: Rough dynamic energy per access, nanojoules.
    """

    size_mb: float
    latency_cycles: int
    area_mm2: float
    dynamic_nj: float


def l2_hit_latency(size_mb: float) -> int:
    """Hit latency in cycles for an on-chip L2 of ``size_mb`` megabytes.

    Args:
        size_mb: Cache capacity in MB; must be positive.

    Returns:
        Integer cycle count, >= 2.
    """
    if size_mb <= 0:
        raise ValueError(f"cache size must be positive, got {size_mb}")
    lat = _BASE_CYCLES + _K_CYCLES_PER_SQRT_MB * math.sqrt(size_mb)
    return max(2, round(lat))


def estimate(size_mb: float) -> CacheEstimate:
    """Full Cacti-style estimate for an L2 of ``size_mb`` megabytes."""
    lat = l2_hit_latency(size_mb)
    # ~1.7 mm^2 per MB of SRAM array at 90 nm, plus periphery.
    area = 2.0 + 1.7 * size_mb
    # Energy per access grows with sqrt(size) (longer wires/word-lines).
    energy = 0.4 + 0.35 * math.sqrt(size_mb)
    return CacheEstimate(
        size_mb=size_mb, latency_cycles=lat, area_mm2=area, dynamic_nj=energy
    )
