"""Catalog: the engine's registry of tables."""

from __future__ import annotations

from collections.abc import Callable

from ..simulator.addresses import AddressSpace
from .heap import HeapFile
from .page import PageLayout
from .schema import Schema


class Catalog:
    """Name -> heap-file map for tables.

    Args:
        space: Address space used for every allocation.
    """

    def __init__(self, space: AddressSpace):
        self._space = space
        self._tables: dict[str, HeapFile] = {}

    def create_table(
        self,
        schema: Schema,
        layout: PageLayout = PageLayout.NSM,
        n_virtual_rows: int = 0,
        row_source: Callable[[int], tuple] | None = None,
        row_block_source: Callable[[int, int], list] | None = None,
    ) -> HeapFile:
        """Create a heap file for ``schema`` and register it.

        Raises:
            ValueError: if the name is taken.
        """
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        heap = HeapFile(
            self._space,
            schema,
            schema.name,
            layout=layout,
            n_virtual_rows=n_virtual_rows,
            row_source=row_source,
            row_block_source=row_block_source,
        )
        self._tables[schema.name] = heap
        return heap
