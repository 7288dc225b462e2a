"""Catalog: the engine's registry of tables and indexes."""

from __future__ import annotations

from collections.abc import Callable

from ..simulator.addresses import AddressSpace
from .btree import BTreeIndex
from .hash_index import HashIndex
from .heap import HeapFile
from .page import PageLayout
from .schema import Schema


class Catalog:
    """Name -> object maps for tables and indexes.

    Args:
        space: Address space used for every allocation.
    """

    def __init__(self, space: AddressSpace):
        self._space = space
        self._tables: dict[str, HeapFile] = {}
        self._indexes: dict[str, BTreeIndex | HashIndex] = {}
        self._index_table: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Tables                                                              #
    # ------------------------------------------------------------------ #

    def create_table(
        self,
        schema: Schema,
        layout: PageLayout = PageLayout.NSM,
        n_virtual_rows: int = 0,
        row_source: Callable[[int], tuple] | None = None,
        row_cache: dict[int, tuple] | None = None,
        row_block_source: Callable[[int, int], list] | None = None,
        block_cache: dict[int, list] | None = None,
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
            row_cache=row_cache,
            row_block_source=row_block_source,
            block_cache=block_cache,
        )
        self._tables[schema.name] = heap
        return heap

    def table(self, name: str) -> HeapFile:
        """Look up a table.

        Raises:
            KeyError: if it does not exist.
        """
        heap = self._tables.get(name)
        if heap is None:
            raise KeyError(f"no table {name!r}")
        return heap

    @property
    def table_names(self) -> list[str]:
        """All registered table names."""
        return sorted(self._tables)

    def total_data_bytes(self) -> int:
        """Aggregate data footprint of every table (address-space bytes)."""
        return sum(t.footprint_bytes for t in self._tables.values())

    # ------------------------------------------------------------------ #
    # Indexes                                                             #
    # ------------------------------------------------------------------ #

    def create_btree_index(
        self,
        name: str,
        table_name: str,
        key: Callable[[tuple], object],
        order: int = 256,
        populate: bool = True,
    ) -> BTreeIndex:
        """Create (and optionally bulk-populate) a B+-tree on a table.

        The key function maps a row tuple to its index key.
        """
        if name in self._indexes:
            raise ValueError(f"index {name!r} already exists")
        heap = self.table(table_name)
        index = BTreeIndex(self._space, name, order=order)
        if populate:
            for rid, row in heap.scan():
                index.insert(key(row), rid)
        self._indexes[name] = index
        self._index_table[name] = table_name
        return index

    def create_hash_index(
        self,
        name: str,
        table_name: str,
        key: Callable[[tuple], object],
        n_buckets: int = 1024,
        populate: bool = True,
    ) -> HashIndex:
        """Create (and optionally bulk-populate) a hash index on a table."""
        if name in self._indexes:
            raise ValueError(f"index {name!r} already exists")
        heap = self.table(table_name)
        index = HashIndex(self._space, name, n_buckets=n_buckets)
        if populate:
            for rid, row in heap.scan():
                index.insert(key(row), rid)
        self._indexes[name] = index
        self._index_table[name] = table_name
        return index

    def index(self, name: str):
        """Look up an index.

        Raises:
            KeyError: if it does not exist.
        """
        idx = self._indexes.get(name)
        if idx is None:
            raise KeyError(f"no index {name!r}")
        return idx

    def indexed_table(self, index_name: str) -> HeapFile:
        """The table an index was built over."""
        return self.table(self._index_table[index_name])
