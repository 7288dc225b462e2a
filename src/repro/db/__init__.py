"""Relational engine substrate — the study's commercial-DBMS analog.

Storage (pages, buffer pool, heap files, B+-tree and computed indexes),
iterator-model query operators, a strict-2PL transaction layer, and the
tracing bridge that records each client's memory references for the
simulator.
"""

from .btree import BTreeIndex
from .buffer import BufferPool
from .catalog import Catalog
from .engine import Database, Session
from .heap import HeapFile
from .page import PageFormat, PageLayout
from .schema import Schema
from .tracer import CodeRegistry, MemoryTracer, NullTracer
from .txn import (
    CC_MODES,
    LockConflict,
    LockManager,
    LockMode,
    LogManager,
    PartitionLockManager,
    Transaction,
    TransactionManager,
    validate_cc_mode,
)
from .types import Column, ColumnType, char, date, float64, int32, int64

__all__ = [
    "BTreeIndex",
    "BufferPool",
    "CC_MODES",
    "Catalog",
    "CodeRegistry",
    "Column",
    "ColumnType",
    "Database",
    "HeapFile",
    "LockConflict",
    "LockManager",
    "LockMode",
    "LogManager",
    "PartitionLockManager",
    "MemoryTracer",
    "NullTracer",
    "PageFormat",
    "PageLayout",
    "Schema",
    "Session",
    "Transaction",
    "TransactionManager",
    "char",
    "date",
    "float64",
    "int32",
    "int64",
    "validate_cc_mode",
]
