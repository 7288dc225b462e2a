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

    Each set is a plain list of the resident line indexes in LRU..MRU
    order: a hit moves its line to the end (skipped when it already is
    the MRU line) and a fill evicts ``set[0]``.  Line states live apart
    from the sets, in one dict per cache that holds only the resident
    lines whose state is not ``CLEAN``; a resident line absent from it is
    clean.  A 16-way set is at most a 184-byte list, where an
    insertion-ordered dict churned by hit reinserts grows to a 64-slot
    table (DESIGN.md §9).  ``tests/test_cache_oracle.py`` drives this
    class and a naive per-set model through randomized op streams and
    checks the state map's invariant after every op.

    Args:
        name: Debug label ("L1D-0", "L2", ...).
        size_bytes: Total capacity; must be divisible by assoc * line_size.
        assoc: Number of ways per set.
        line_size: Line size in bytes (64 throughout the study).
    """

    __slots__ = ("name", "size_bytes", "assoc", "line_size", "n_sets",
                 "_sets", "_states", "stats")

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
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]
        #: line -> state for resident lines whose state is not CLEAN.
        self._states: dict[int, int] = {}
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
        lines = self._sets[line % self.n_sets]
        stats = self.stats
        if line in lines:
            stats.hits += 1
            if lines[-1] != line:
                lines.remove(line)
                lines.append(line)
            if write:
                self._states[line] = DIRTY
            return True, None
        stats.misses += 1
        victim = None
        if len(lines) >= self.assoc:
            vline = lines.pop(0)
            vstate = self._states.pop(vline, CLEAN)
            stats.evictions += 1
            if vstate == DIRTY:
                stats.writebacks += 1
            victim = (vline, vstate)
        lines.append(line)
        if write:
            self._states[line] = DIRTY
        return False, victim

    # ------------------------------------------------------------------ #
    # Fine-grained primitives (coherence layer)                           #
    # ------------------------------------------------------------------ #

    def lookup(self, line: int) -> int | None:
        """Return the line's state without updating LRU, or None if absent."""
        if line in self._sets[line % self.n_sets]:
            return self._states.get(line, CLEAN)
        return None

    def touch(self, line: int) -> None:
        """Move a resident line to MRU position.  No-op if absent."""
        lines = self._sets[line % self.n_sets]
        if line in lines and lines[-1] != line:
            lines.remove(line)
            lines.append(line)

    def set_state(self, line: int, new_state: int) -> None:
        """Overwrite a resident line's state.

        Raises:
            KeyError: if the line is not resident.
        """
        if line not in self._sets[line % self.n_sets]:
            raise KeyError(f"{self.name}: line {line:#x} not resident")
        self._set(line, new_state)

    def _set(self, line: int, state: int) -> None:
        """Record a resident line's state (a clean line has no entry)."""
        if state == CLEAN:
            self._states.pop(line, None)
        else:
            self._states[line] = state

    def insert(self, line: int, state: int) -> tuple[int, int] | None:
        """Insert a line with ``state`` (refreshing a resident one); return
        any victim.

        Unlike :meth:`access` this does not count a hit or miss — the caller
        (the coherence protocol) does its own accounting.
        """
        lines = self._sets[line % self.n_sets]
        victim = None
        if line in lines:
            # Resident: refresh state and recency.
            lines.remove(line)
        elif len(lines) >= self.assoc:
            vline = lines.pop(0)
            self.stats.evictions += 1
            victim = (vline, self._states.pop(vline, CLEAN))
        lines.append(line)
        self._set(line, state)
        return victim

    def invalidate(self, line: int) -> int | None:
        """Remove a line; return its state, or None if it was absent."""
        lines = self._sets[line % self.n_sets]
        if line not in lines:
            return None
        lines.remove(line)
        return self._states.pop(line, CLEAN)

    # ------------------------------------------------------------------ #
    # State snapshot/restore (warm memo)                                  #
    # ------------------------------------------------------------------ #

    def snapshot_sets(self) -> tuple[list[list[int]], dict[int, int]]:
        """Copies of the per-set lists (LRU..MRU) and of the state map."""
        return [s.copy() for s in self._sets], self._states.copy()

    def load_sets(self, snapshot: tuple[list[list[int]], dict[int, int]]) -> None:
        """Install copies of a :meth:`snapshot_sets` snapshot.

        Stats are untouched.
        """
        sets, states = snapshot
        if len(sets) != self.n_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets)} sets, "
                f"cache has {self.n_sets}")
        self._sets = [s.copy() for s in sets]
        self._states = states.copy()

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self.n_sets]
