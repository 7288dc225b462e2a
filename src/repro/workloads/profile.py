"""Workload profiling: what a trace bundle looks like before it runs.

The characterization's inputs deserve the same scrutiny as its outputs:
this module summarizes a :class:`~repro.simulator.trace.Workload` — data
footprints, reference flag mix, instruction distribution across code
modules — so a user can verify that a workload has the structure the study
assumes (a small hot set, a beyond-cache cold set, pointer-chasing OLTP,
streaming DSS) before burning simulation time on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..simulator.trace import (
    FLAG_DEPENDENT,
    FLAG_KERNEL,
    FLAG_STREAM,
    FLAG_WRITE,
    Trace,
    Workload,
)


@dataclass
class TraceProfile:
    """Summary of one client trace.

    Attributes:
        name: Trace name.
        references: Data references in one pass.
        instructions: Instructions in one pass.
        distinct_lines: Distinct 64B lines referenced.
        footprint_mb: Those lines as megabytes.
        dependent / write / stream / kernel: Flag fractions.
        instructions_per_reference: Mean compute density.
        module_instructions: Instructions charged per code module.
    """

    name: str
    references: int
    instructions: int
    distinct_lines: int
    dependent: float
    write: float
    stream: float
    kernel: float
    module_instructions: dict[str, int] = field(default_factory=dict)


def profile_trace(trace: Trace, lines: set[int] | None = None) -> TraceProfile:
    """Compute a :class:`TraceProfile` for one trace.

    Counts each event kind once and weighs its decoded triple by that
    count: a loop over the trace's event table, never over its events.
    ``lines`` is the trace's set of distinct data lines when the caller
    has already built it (:func:`profile_workload` does).
    """
    n = len(trace)
    flag_counts = Counter()
    module_instr: Counter = Counter()
    footprints = trace.footprints
    events = trace.events
    for k, count in Counter(trace.kinds).items():
        icount, flags, region = events[k]
        if flags & FLAG_DEPENDENT:
            flag_counts["dep"] += count
        if flags & FLAG_WRITE:
            flag_counts["write"] += count
        if flags & FLAG_STREAM:
            flag_counts["stream"] += count
        if flags & FLAG_KERNEL:
            flag_counts["kernel"] += count
        module_instr[footprints[region].name] += icount * count
    return TraceProfile(
        name=trace.name,
        references=n,
        instructions=trace.total_instructions,
        distinct_lines=(trace.distinct_lines() if lines is None
                        else len(lines)),
        dependent=flag_counts["dep"] / n,
        write=flag_counts["write"] / n,
        stream=flag_counts["stream"] / n,
        kernel=flag_counts["kernel"] / n,
        module_instructions=dict(module_instr),
    )


@dataclass
class WorkloadProfile:
    """Aggregate profile of a workload bundle.

    Attributes:
        name: Workload name.
        clients: Per-client profiles.
        shared_lines: Lines touched by more than one client.
        union_lines: Lines touched by any client.
    """

    name: str
    clients: list[TraceProfile]
    shared_lines: int
    union_lines: int

    @property
    def union_footprint_mb(self) -> float:
        """Collective data footprint in MB."""
        return self.union_lines * 64 / (1024 * 1024)

    @property
    def sharing_fraction(self) -> float:
        """Fraction of the union footprint touched by >= 2 clients."""
        return self.shared_lines / max(1, self.union_lines)

    @property
    def mean_dependent(self) -> float:
        """Mean per-client dependent fraction."""
        return sum(c.dependent for c in self.clients) / len(self.clients)

    def top_modules(self, k: int = 5) -> list[tuple[str, int]]:
        """The k code modules with the most charged instructions."""
        totals: Counter = Counter()
        for c in self.clients:
            totals.update(c.module_instructions)
        return totals.most_common(k)


def profile_workload(workload: Workload) -> WorkloadProfile:
    """Profile every client and the cross-client sharing structure.

    Each trace's line set is built once and serves both its distinct-line
    count and the cross-client count.
    """
    clients = []
    seen: Counter = Counter()
    for trace in workload.traces:
        lines = {a >> 6 for a in trace.addrs}
        clients.append(profile_trace(trace, lines))
        seen.update(lines)
    union = len(seen)
    shared = sum(1 for c in seen.values() if c >= 2)
    return WorkloadProfile(
        name=workload.name,
        clients=clients,
        shared_lines=shared,
        union_lines=union,
    )


def format_profile(profile: WorkloadProfile) -> str:
    """Human-readable rendering of a workload profile."""
    lines = [
        f"workload {profile.name}: {len(profile.clients)} clients",
        f"  union data footprint: {profile.union_footprint_mb:.2f} MB "
        f"({profile.union_lines:,} lines), "
        f"{profile.sharing_fraction:.0%} shared by >=2 clients",
        f"  mean dependent fraction: {profile.mean_dependent:.0%}",
        "  busiest code modules:",
    ]
    for name, instr in profile.top_modules():
        lines.append(f"    {name:<20} {instr:>12,} instructions")
    return "\n".join(lines)
