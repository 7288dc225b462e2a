"""Set-associative cache with true LRU replacement.

The cache operates on *line indexes* (byte address >> 6); callers convert
once.  Each resident line carries a small integer state: for plain caches
this is a dirty bit, for the coherence layer it is a MESI state.  The class
exposes both a convenient ``access`` fast path (lookup + fill on miss) used
by the hierarchy's hot loop, and fine-grained ``lookup`` / ``insert`` /
``invalidate`` primitives used by the MESI directory.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Line states for plain (non-coherent) caches.
CLEAN = 0
DIRTY = 1


@dataclass
class CacheStats:
    """Event counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access; 0.0 when the cache was never accessed."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter (used at the warm/measure boundary)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0


class SetAssocCache:
    """A set-associative cache over line indexes.

    Each set is a single insertion-ordered dict mapping tag -> state:
    Python dicts preserve insertion order, so the first key is the LRU
    line and the last the MRU.  Moving a line to MRU is a pop + reinsert
    and evicting the LRU is ``next(iter(set))`` — every operation is O(1)
    instead of the O(assoc) ``list.remove`` of a parallel-list design.
    The observable behaviour (hit/miss/eviction/victim sequences) is
    identical; ``tests/test_cache_oracle.py`` drives both models through
    randomized op streams to prove it.

    Args:
        name: Debug label ("L1D-0", "L2", ...).
        size_bytes: Total capacity; must be divisible by assoc * line_size.
        assoc: Number of ways per set.
        line_size: Line size in bytes (64 throughout the study).
    """

    __slots__ = ("name", "size_bytes", "assoc", "line_size", "n_sets",
                 "_sets", "stats")

    def __init__(self, name: str, size_bytes: int, assoc: int, line_size: int = 64):
        if size_bytes <= 0 or assoc <= 0:
            raise ValueError("cache size and associativity must be positive")
        n_sets = size_bytes // (assoc * line_size)
        if n_sets <= 0:
            raise ValueError(
                f"{name}: size {size_bytes} too small for {assoc}-way "
                f"sets of {line_size}B lines"
            )
        # Set counts need not be powers of two (26 MB caches, scaled
        # capacities); lines map to sets by modulo.  Effective capacity is
        # n_sets * assoc * line_size (any remainder bytes are dropped).
        self.name = name
        self.size_bytes = n_sets * assoc * line_size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = n_sets
        self._sets: list[dict[int, int]] = [{} for _ in range(n_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Fast path                                                           #
    # ------------------------------------------------------------------ #

    def access(self, line: int, write: bool) -> tuple[bool, tuple[int, int] | None]:
        """Look up ``line``; fill it on a miss.

        Args:
            line: Line index (byte address >> log2(line_size)).
            write: Whether the access dirties the line.

        Returns:
            ``(hit, victim)`` where ``victim`` is ``(line, state)`` for an
            evicted line, or None.  A dirty victim also bumps the writeback
            counter.
        """
        sdict = self._sets[line % self.n_sets]
        stats = self.stats
        state = sdict.pop(line, -1)
        if state >= 0:
            stats.hits += 1
            # Reinsert at the MRU (insertion-order) end.
            sdict[line] = DIRTY if write else state
            return True, None
        stats.misses += 1
        victim = None
        if len(sdict) >= self.assoc:
            vline = next(iter(sdict))
            vstate = sdict.pop(vline)
            stats.evictions += 1
            if vstate == DIRTY:
                stats.writebacks += 1
            victim = (vline, vstate)
        sdict[line] = DIRTY if write else CLEAN
        return False, victim

    # ------------------------------------------------------------------ #
    # Fine-grained primitives (coherence layer)                           #
    # ------------------------------------------------------------------ #

    def lookup(self, line: int) -> int | None:
        """Return the line's state without updating LRU, or None if absent."""
        return self._sets[line % self.n_sets].get(line)

    def touch(self, line: int) -> None:
        """Move a resident line to MRU position.  No-op if absent."""
        sdict = self._sets[line % self.n_sets]
        state = sdict.pop(line, None)
        if state is not None:
            sdict[line] = state

    def set_state(self, line: int, new_state: int) -> None:
        """Overwrite a resident line's state.

        Raises:
            KeyError: if the line is not resident.
        """
        sdict = self._sets[line % self.n_sets]
        if line not in sdict:
            raise KeyError(f"{self.name}: line {line:#x} not resident")
        sdict[line] = new_state

    def insert(self, line: int, state: int) -> tuple[int, int] | None:
        """Insert a line (assumed absent) with ``state``; return any victim.

        Unlike :meth:`access` this does not count a hit or miss — the caller
        (the coherence protocol) does its own accounting.
        """
        sdict = self._sets[line % self.n_sets]
        if line in sdict:
            # Resident: refresh state and recency.
            del sdict[line]
            sdict[line] = state
            return None
        victim = None
        if len(sdict) >= self.assoc:
            vline = next(iter(sdict))
            vstate = sdict.pop(vline)
            self.stats.evictions += 1
            victim = (vline, vstate)
        sdict[line] = state
        return victim

    def invalidate(self, line: int) -> int | None:
        """Remove a line; return its state, or None if it was absent."""
        return self._sets[line % self.n_sets].pop(line, None)

    # ------------------------------------------------------------------ #
    # State snapshot/restore (warm memo)                                  #
    # ------------------------------------------------------------------ #

    def snapshot_sets(self) -> list[dict[int, int]]:
        """Copies of the per-set dicts (insertion order = LRU..MRU)."""
        return [s.copy() for s in self._sets]

    def load_sets(self, sets: list[dict[int, int]]) -> None:
        """Install copies of set dicts from :meth:`snapshot_sets`.

        Stats are untouched.
        """
        if len(sets) != self.n_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets)} sets, "
                f"cache has {self.n_sets}")
        self._sets = [s.copy() for s in sets]

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self.n_sets]
