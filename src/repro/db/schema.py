"""Table schemas: column layout arithmetic for NSM and PAX pages.

A :class:`Schema` knows every column's byte offset within an NSM record and
the per-column "minipage" layout PAX [Ailamaki et al., VLDB'01] uses inside
a page.  The engine consults these offsets to compute the addresses its
tuple accesses touch; the data itself lives in Python tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import Column


@dataclass(frozen=True)
class Schema:
    """An ordered set of columns with precomputed layout.

    Attributes:
        name: Relation name.
        columns: Column definitions, in storage order.
    """

    name: str
    columns: tuple[Column, ...]
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _widths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _row_width: int = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, columns: list[Column] | tuple[Column, ...]):
        if not columns:
            raise ValueError(f"schema {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"schema {name!r} has duplicate column names")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", tuple(columns))
        # Precompute the full layout once: offsets, widths, and row width
        # are consulted per traced field access, so they must be O(1).
        widths = tuple(c.width for c in columns)
        offsets = []
        off = 0
        for w in widths:
            offsets.append(off)
            off += w
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_row_width", off)

    @property
    def row_width(self) -> int:
        """NSM record width in bytes (sum of column widths)."""
        return self._row_width

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Index of the column called ``name``.

        Raises:
            KeyError: if no such column exists.
        """
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"schema {self.name!r} has no column {name!r}")

