"""Hardware-islands topologies: multi-socket machines and placements.

The paper's equal-area study assumes one chip with one shared L2, but
rack-relevant deployments are multi-socket "islands" where intra-socket
communication is fast and cross-socket traffic is an order of magnitude
slower (Porobic et al., *OLTP on Hardware Islands*, PAPERS.md).  This
module is the spec layer for that dimension:

- :class:`IslandTopology` — a frozen, eagerly-validated description of a
  multi-socket machine: how many sockets (islands), how each island's
  cores and L2 banks are carved out of the chip totals, and how much
  more expensive the remote L2/memory paths are than the local ones.
- :data:`PLACEMENTS` / :func:`validate_placement` — the deployment
  placement vocabulary (how client threads and data map onto islands).
- :func:`check_placement` / :func:`check_geometry` — the two rules every
  entry point (machine, run spec, model, wire query, explorer) applies
  to a (topology, placement, chip) triple.

The simulator charges remote latency whenever a request's *home island*
differs from the requester's island.  Homes are assigned by address-range
interleave at 64 KB granularity (:data:`HOME_INTERLEAVE_SHIFT`), except
under the ``island-partitioned`` placement where each island runs its own
database instance against island-local data, so every access is
home-local by construction (see :mod:`repro.simulator.hierarchy`).

A topology with ``n_sockets == 1`` is *inactive*: it describes the
pre-existing single-chip machine and must be behaviourally invisible —
the transparency suite (tests/test_island_transparency.py) pins
single-socket results field-for-field identical to a config with no
topology at all, and cache keys only grow an islands component when a
topology is active (DESIGN.md section 15).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

#: Deployment placements (Porobic et al.'s spectrum, coarsened to three):
#:
#: ``shared-everything``
#:     One database instance spanning all islands.  Clients are assigned
#:     to hardware contexts by the existing global round-robin, and data
#:     homes interleave across islands, so roughly ``(s-1)/s`` of the
#:     off-L1 traffic pays the remote path.
#: ``island-partitioned``
#:     One instance per island with island-local data.  Clients are
#:     pinned to islands round-robin and every access is home-local, but
#:     the instances still compete for the shared L2 capacity.
#: ``hybrid``
#:     Clients are pinned to islands (as in ``island-partitioned``) but
#:     run against the single shared instance, so data homes still
#:     interleave and the remote fraction stays ``(s-1)/s``.
PLACEMENTS = ("shared-everything", "island-partitioned", "hybrid")

#: Default placement — the pre-island behaviour.
DEFAULT_PLACEMENT = "shared-everything"

#: Home islands interleave in 64 KB ranges: a cache line's home island is
#: ``(line >> 10) & (n_sockets - 1)`` (lines are 64 B, so 1024 lines span
#: 64 KB).  Page-sized database objects (8 KB) stay whole on one island
#: while large structures stripe across all of them.
HOME_INTERLEAVE_SHIFT = 10

#: Island-partitioned placement tags lines with the owning island well
#: above any real address (the address space allocator starts at
#: 0x1000_0000 and lines are ``addr >> 6``, so real lines fit in far
#: fewer than 40 bits).
PARTITION_TAG_SHIFT = 40


def _power_of_two(n: object) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) \
        and n >= 1 and not (n & (n - 1))


def validate_placement(placement: str) -> str:
    """Return ``placement`` if known, else raise ``ValueError``."""
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}")
    return placement


def check_placement(placement: str, topology: IslandTopology | None) -> str:
    """Return ``placement`` if it is known and ``topology`` can host it.

    Every placement but the default pins clients or data to islands, so
    it needs an active topology; a ``None`` or one-socket topology is a
    single chip, which is shared-everything.
    """
    validate_placement(placement)
    if placement != DEFAULT_PLACEMENT \
            and not (topology is not None and topology.active):
        raise ValueError(
            f"placement {placement!r} requires a multi-socket topology "
            "(single-socket machines are shared-everything)")
    return placement


def check_geometry(topology: IslandTopology | None, n_cores: int,
                   l2_banks: int) -> None:
    """Raise ``ValueError`` unless an active ``topology`` carves a chip of
    ``n_cores`` cores and ``l2_banks`` L2 banks into its islands.

    ``None`` and one-socket topologies carve any chip.
    """
    if topology is not None and topology.active:
        topology.island_cores(n_cores)
        topology.island_banks(l2_banks)


@dataclass(frozen=True)
class IslandTopology:
    """A multi-socket hardware-islands machine description.

    Attributes:
        n_sockets: Number of sockets (islands); a power of two.  1 means
            the topology is inactive (single-chip, pre-island semantics).
        remote_l2_latency: Multiplier over the local L2 hit latency paid
            by accesses whose home island is remote (>= 1).  The default
            3x reflects a cross-socket interconnect hop each way.
        remote_mem_latency: Multiplier over the local memory latency for
            remote-home memory accesses (>= 1).  Memory is already slow,
            so the *relative* cross-socket penalty is smaller.
        cores_per_island: Optional explicit per-island core count (a
            power of two).  When given, the machine build checks
            ``n_sockets * cores_per_island == hierarchy.n_cores``; when
            None it is derived as ``n_cores // n_sockets`` (which must
            divide evenly into a power of two).

    Validation is eager (construction-time), mirroring the workload
    layer's ``SkewSpec`` gating, so a bad spec fails loudly at the CLI /
    RunSpec boundary rather than deep inside a sweep.
    """

    n_sockets: int = 1
    remote_l2_latency: float = 3.0
    remote_mem_latency: float = 1.5
    cores_per_island: int | None = None

    def __post_init__(self) -> None:
        if not _power_of_two(self.n_sockets):
            raise ValueError(
                f"n_sockets must be a power of two >= 1, "
                f"got {self.n_sockets!r}")
        for name in ("remote_l2_latency", "remote_mem_latency"):
            mult = getattr(self, name)
            # The upper bound rejects inf and ints no float can hold
            # (key() takes float()); NaN fails both comparisons.
            if not isinstance(mult, (int, float)) or isinstance(mult, bool) \
                    or not 1.0 <= mult <= sys.float_info.max:
                raise ValueError(
                    f"{name} must be a finite multiplier >= 1, got {mult!r}")
        if self.cores_per_island is not None \
                and not _power_of_two(self.cores_per_island):
            raise ValueError(
                f"cores_per_island must be a power of two >= 1, "
                f"got {self.cores_per_island!r}")

    @property
    def active(self) -> bool:
        """True when this topology changes machine behaviour (>1 socket)."""
        return self.n_sockets > 1

    def island_cores(self, n_cores: int) -> int:
        """Per-island core count for a chip with ``n_cores`` cores.

        Raises:
            ValueError: when the explicit ``cores_per_island`` does not
                tile the chip, or the derived per-island count is not a
                power of two >= 1 (the eager-validation parity rule).
        """
        if self.cores_per_island is not None:
            if self.cores_per_island * self.n_sockets != n_cores:
                raise ValueError(
                    f"{self.n_sockets} sockets x {self.cores_per_island} "
                    f"cores/island != {n_cores} cores")
            return self.cores_per_island
        if n_cores % self.n_sockets:
            raise ValueError(
                f"{n_cores} cores do not divide across "
                f"{self.n_sockets} sockets")
        per_island = n_cores // self.n_sockets
        if not _power_of_two(per_island):
            raise ValueError(
                f"per-island core count must be a power of two, got "
                f"{per_island} ({n_cores} cores / {self.n_sockets} sockets)")
        return per_island

    def island_banks(self, l2_banks: int) -> int:
        """Per-island L2 bank count for a chip with ``l2_banks`` banks."""
        if l2_banks % self.n_sockets:
            raise ValueError(
                f"{l2_banks} L2 banks do not divide across "
                f"{self.n_sockets} sockets")
        return l2_banks // self.n_sockets

    def describe(self) -> str:
        """Short report tag, e.g. ``2s-island`` (empty when inactive)."""
        if not self.active:
            return ""
        return f"{self.n_sockets}s-island"

    def key(self) -> tuple:
        """Hashable identity for cache keys (only consulted when active)."""
        return ("islands", self.n_sockets, float(self.remote_l2_latency),
                float(self.remote_mem_latency), self.cores_per_island)


def as_topology(value) -> IslandTopology | None:
    """Normalize a topology argument: None, an int socket count, or an
    :class:`IslandTopology` (returned as-is).  ``None`` and inactive
    topologies are both legal; callers test ``topo is not None and
    topo.active`` before changing behaviour."""
    if value is None or isinstance(value, IslandTopology):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return IslandTopology(n_sockets=value)
    raise ValueError(
        f"topology must be an IslandTopology, an int socket count, or "
        f"None, got {value!r}")
