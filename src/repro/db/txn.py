"""Transactions: strict two-phase locking and a write-ahead log buffer.

The transactional layer contributes two of the hottest shared structures in
an OLTP system's primary working set:

- the *lock table* — every acquire/release writes a hash bucket that other
  clients' transactions also write (SMP coherence ping-pong; CMP L2 hits);
- the *log buffer tail* — every transaction appends log records through a
  single tail pointer, the canonical correlated-write hot line behind the
  bursty OLTP misses of Section 5.3.

Concurrency control semantics (shared/exclusive modes, upgrades, conflict
detection, strict 2PL release-at-end) are implemented and tested; trace
generation runs clients one at a time, so conflicts never block there, but
the same code path serves the engine's own tests and the staged executor.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field

from ..simulator.addresses import AddressSpace
from . import costs
from .tracer import NullTracer

#: Bytes per lock-table bucket.
_LOCK_BUCKET_BYTES = 32
#: Lock-table buckets.
_LOCK_BUCKETS = 1024
#: Log buffer bytes (circular).
_LOG_BUFFER_BYTES = 64 * 1024
#: Bytes per partition-ownership slot (one cache line).
_PARTITION_SLOT_BYTES = 64

#: Supported concurrency-control modes.  ``"2pl"`` is the lock-based
#: strict two-phase locking above; ``"partitioned"`` is
#: partitioned/deterministic ordering — each transaction claims whole
#: partitions (warehouses) in a deterministic global order instead of
#: row locks, the Calvin/H-Store family.
CC_MODES = ("2pl", "partitioned")


def validate_cc_mode(cc_mode: str) -> str:
    """Return ``cc_mode`` or raise ``ValueError`` for unknown modes."""
    if cc_mode not in CC_MODES:
        raise ValueError(
            f"unknown cc_mode {cc_mode!r}; expected one of {CC_MODES}")
    return cc_mode


class LockMode(enum.Enum):
    """Lock compatibility classes."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockConflict(Exception):
    """Raised when a lock request conflicts with another transaction."""


@dataclass
class _LockEntry:
    mode: LockMode
    holders: set[int] = field(default_factory=set)


class LockManager:
    """Strict 2PL lock table over named resources.

    Resources are arbitrary hashable names (``("stock", rid)``,
    ``("table", "orders")`` ...).  Requests from the holder of a
    conflicting transaction raise :class:`LockConflict` immediately (no
    waits-for graph: trace generation is single-threaded, and the engine's
    tests exercise the conflict paths directly).
    """

    def __init__(self, space: AddressSpace):
        self._table: dict = {}
        # Resources per txn in acquisition order (dict-as-ordered-set):
        # release_all replays this order into the trace, so it must not
        # depend on hash ordering (PYTHONHASHSEED varies across processes
        # and would make traces — and thus results — irreproducible).
        self._held: dict[int, dict] = {}
        self._region = space.alloc("lockmgr:table",
                                   _LOCK_BUCKETS * _LOCK_BUCKET_BYTES)
        self.acquires = 0
        self.conflicts = 0

    def _bucket_addr(self, resource) -> int:
        h = zlib.crc32(repr(resource).encode()) % _LOCK_BUCKETS
        return self._region.base + h * _LOCK_BUCKET_BYTES

    def acquire(self, txn_id: int, resource, mode: LockMode,
                tracer: NullTracer = NullTracer()) -> None:
        """Acquire ``resource`` in ``mode`` for ``txn_id``.

        Re-acquisition is a no-op; a shared holder may upgrade to exclusive
        when it is the only holder.

        Raises:
            LockConflict: when another transaction holds an incompatible
                lock.
        """
        tracer.enter("txn.lock")
        tracer.compute(costs.LOCK_ACQUIRE)
        tracer.data(self._bucket_addr(resource), write=True, dependent=True)
        self.acquires += 1
        entry = self._table.get(resource)
        if entry is None:
            self._table[resource] = _LockEntry(mode, {txn_id})
            self._held.setdefault(txn_id, {})[resource] = None
            return
        if txn_id in entry.holders:
            if mode is LockMode.EXCLUSIVE and entry.mode is LockMode.SHARED:
                if len(entry.holders) == 1:
                    entry.mode = LockMode.EXCLUSIVE
                    return
                self.conflicts += 1
                raise LockConflict(
                    f"txn {txn_id}: upgrade on {resource!r} blocked"
                )
            return
        if entry.mode is LockMode.SHARED and mode is LockMode.SHARED:
            entry.holders.add(txn_id)
            self._held.setdefault(txn_id, {})[resource] = None
            return
        self.conflicts += 1
        raise LockConflict(
            f"txn {txn_id}: {mode.value} on {resource!r} conflicts with "
            f"{entry.mode.value} held by {sorted(entry.holders)}"
        )

    def release_all(self, txn_id: int,
                    tracer: NullTracer = NullTracer()) -> int:
        """Release every lock of ``txn_id`` (strict 2PL end-of-transaction).

        Returns the number of locks released.
        """
        resources = self._held.pop(txn_id, {})
        tracer.enter("txn.lock")
        for resource in resources:
            tracer.compute(costs.LOCK_RELEASE)
            tracer.data(self._bucket_addr(resource), write=True)
            entry = self._table.get(resource)
            if entry is None:
                continue
            entry.holders.discard(txn_id)
            if not entry.holders:
                del self._table[resource]
        return len(resources)

    def holders(self, resource) -> set[int]:
        """Transactions currently holding ``resource``."""
        entry = self._table.get(resource)
        return set(entry.holders) if entry else set()


class PartitionLockManager:
    """Per-partition single-owner locks for the partitioned CC mode.

    Instead of hashing row names into a shared 1024-bucket table, a
    transaction claims whole partitions (warehouses): one exclusive
    ownership slot per partition, one cache line each.  Clients homed on
    different warehouses therefore write *disjoint* lines — the
    coherence ping-pong of the shared lock table disappears from the
    trace, which is precisely the partitioned camp's bet.  Cross-
    partition transactions claim every partition they touch.
    """

    def __init__(self, space: AddressSpace, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("PartitionLockManager needs n_partitions >= 1")
        self.n_partitions = n_partitions
        self._owner: dict[int, int] = {}
        self._held: dict[int, dict] = {}  # txn -> partitions, claim order
        self._region = space.alloc("lockmgr:partitions",
                                   n_partitions * _PARTITION_SLOT_BYTES)
        self.acquires = 0
        self.conflicts = 0

    def _slot_addr(self, partition: int) -> int:
        return self._region.base + partition * _PARTITION_SLOT_BYTES

    def acquire(self, txn_id: int, partition: int,
                tracer: NullTracer = NullTracer()) -> None:
        """Claim ``partition`` exclusively for ``txn_id`` (re-entrant).

        Raises:
            LockConflict: when another transaction owns the partition.
        """
        if not 0 <= partition < self.n_partitions:
            raise ValueError(
                f"partition {partition} out of range 0..{self.n_partitions - 1}")
        tracer.enter("txn.lock")
        tracer.compute(costs.LOCK_ACQUIRE)
        tracer.data(self._slot_addr(partition), write=True, dependent=True)
        self.acquires += 1
        owner = self._owner.get(partition)
        if owner is None:
            self._owner[partition] = txn_id
            self._held.setdefault(txn_id, {})[partition] = None
            return
        if owner == txn_id:
            return
        self.conflicts += 1
        raise LockConflict(
            f"txn {txn_id}: partition {partition} owned by {owner}")

    def release_all(self, txn_id: int,
                    tracer: NullTracer = NullTracer()) -> int:
        """Release every partition of ``txn_id``; returns the count."""
        partitions = self._held.pop(txn_id, {})
        tracer.enter("txn.lock")
        for partition in partitions:
            tracer.compute(costs.LOCK_RELEASE)
            tracer.data(self._slot_addr(partition), write=True)
            if self._owner.get(partition) == txn_id:
                del self._owner[partition]
        return len(partitions)


class LogManager:
    """Write-ahead log: a circular in-memory buffer with a hot tail pointer.

    Every append writes the tail pointer (one line shared by every client)
    and the record's lines in the circular buffer.
    """

    def __init__(self, space: AddressSpace):
        self._meta_region = space.alloc("log:meta", 64)
        self._buf_region = space.alloc("log:buffer", _LOG_BUFFER_BYTES)
        self._tail = 0
        self.records = 0
        self.bytes_written = 0

    @property
    def tail_addr(self) -> int:
        """Address of the (hot, shared) tail pointer."""
        return self._meta_region.base

    def append(self, nbytes: int, tracer: NullTracer = NullTracer(),
               write_tail: bool = True) -> int:
        """Append a record of ``nbytes``; returns its LSN (byte offset).

        Args:
            nbytes: Record size.
            tracer: Where to emit the traffic.
            write_tail: Whether this append contends on the shared tail
                pointer.  Transactions group-reserve log space (one tail
                write at first append, one at commit), so their
                intermediate records pass ``False`` — without batching the
                tail line would dominate the trace unrealistically.
        """
        if nbytes <= 0:
            raise ValueError("log records must have positive size")
        tracer.enter("txn.log")
        tracer.compute(costs.LOG_RECORD)
        if write_tail:
            tracer.data(self.tail_addr, write=True, dependent=True)
        lsn = self._tail
        start = self._tail % _LOG_BUFFER_BYTES
        for off in range(0, nbytes, 64):
            tracer.data(
                self._buf_region.base + (start + off) % _LOG_BUFFER_BYTES,
                write=True,
            )
        self._tail += nbytes
        self.records += 1
        self.bytes_written += nbytes
        return lsn


class Transaction:
    """Handle for one open transaction."""

    def __init__(self, txn_id: int, manager: "TransactionManager"):
        self.txn_id = txn_id
        self._manager = manager
        self.state = "active"
        self._log_reserved = False

    def lock(self, resource, mode: LockMode,
             tracer: NullTracer = NullTracer()) -> None:
        """Acquire a lock under this transaction."""
        if self.state != "active":
            raise RuntimeError(f"txn {self.txn_id} is {self.state}")
        self._manager.locks.acquire(self.txn_id, resource, mode, tracer)

    def log(self, nbytes: int, tracer: NullTracer = NullTracer()) -> int:
        """Write a log record under this transaction.

        The first record of the transaction reserves log space (writing
        the shared tail pointer); later records fill the reservation.
        """
        if self.state != "active":
            raise RuntimeError(f"txn {self.txn_id} is {self.state}")
        write_tail = not self._log_reserved
        self._log_reserved = True
        return self._manager.log.append(nbytes, tracer, write_tail=write_tail)


class TransactionManager:
    """Begin/commit/abort plumbing over the lock and log managers."""

    def __init__(self, space: AddressSpace):
        self.locks = LockManager(space)
        self.log = LogManager(space)
        self._next_id = 1
        self.committed = 0
        self.aborted = 0

    def begin(self, tracer: NullTracer = NullTracer()) -> Transaction:
        """Open a transaction."""
        tracer.enter("txn.manager")
        tracer.compute(costs.TXN_BEGIN)
        tracer.data(self.log.tail_addr, dependent=True)
        txn = Transaction(self._next_id, self)
        self._next_id += 1
        return txn

    def commit(self, txn: Transaction,
               tracer: NullTracer = NullTracer()) -> None:
        """Commit: write the commit record, release locks."""
        if txn.state != "active":
            raise RuntimeError(f"txn {txn.txn_id} is {txn.state}")
        tracer.enter("txn.manager")
        tracer.compute(costs.TXN_COMMIT)
        self.log.append(32, tracer)
        self.locks.release_all(txn.txn_id, tracer)
        txn.state = "committed"
        self.committed += 1

    def abort(self, txn: Transaction,
              tracer: NullTracer = NullTracer()) -> None:
        """Abort: release locks (updates are compensated by the caller)."""
        if txn.state != "active":
            raise RuntimeError(f"txn {txn.txn_id} is {txn.state}")
        tracer.enter("txn.manager")
        tracer.compute(costs.TXN_COMMIT // 2)
        self.locks.release_all(txn.txn_id, tracer)
        txn.state = "aborted"
        self.aborted += 1
