"""Unit tests for the buffer pool and the transaction layer."""

import pytest

from repro.db.buffer import BufferPool
from repro.db.heap import HeapFile
from repro.db.schema import Schema
from repro.db.txn import (
    LockConflict,
    LockMode,
    LogManager,
    TransactionManager,
)
from repro.db.types import int64
from repro.simulator.addresses import AddressSpace


def resident(pool, heap, page_no):
    """Whether a page is in the pool: refetching it hits the directory."""
    hits = pool.stats.directory_hits
    pool.fetch(heap, page_no)
    return pool.stats.directory_hits == hits + 1


def make_heap(space, name="t", rows=100):
    h = HeapFile(space, Schema(name, [int64("id")]), name)
    for i in range(rows):
        h.append((i,))
    return h


class TestBufferPool:
    def test_fetch_returns_page_base(self):
        space = AddressSpace()
        heap = make_heap(space)
        pool = BufferPool(space)
        assert pool.fetch(heap, 0) == heap.page_base(0)

    def test_directory_hit_on_refetch(self):
        space = AddressSpace()
        heap = make_heap(space)
        pool = BufferPool(space)
        pool.fetch(heap, 0)
        pool.fetch(heap, 0)
        assert pool.stats.directory_hits == 1
        assert pool.stats.installs == 1

    def test_capacity_enforced_by_clock(self):
        space = AddressSpace()
        heap = make_heap(space, rows=100 * 1000)
        pool = BufferPool(space, capacity_pages=4)
        for p in range(10):
            pool.fetch(heap, p)
        assert pool.stats.installs - pool.stats.evictions <= 4
        assert pool.stats.evictions >= 6

    def test_second_chance_prefers_unreferenced(self):
        space = AddressSpace()
        heap = make_heap(space, rows=100 * 1000)
        pool = BufferPool(space, capacity_pages=3)
        for p in range(3):
            pool.fetch(heap, p)
        pool.fetch(heap, 7)  # first eviction clears every ref bit
        pool.fetch(heap, 1)  # re-reference page 1
        pool.fetch(heap, 8)  # second eviction: must skip page 1
        assert resident(pool, heap, 1)
        assert not resident(pool, heap, 2)


class TestLockManager:
    def test_shared_locks_compatible(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "r", LockMode.SHARED)
        tm.locks.acquire(2, "r", LockMode.SHARED)
        assert tm.locks.holders("r") == {1, 2}

    def test_exclusive_conflicts_with_shared(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "r", LockMode.SHARED)
        with pytest.raises(LockConflict):
            tm.locks.acquire(2, "r", LockMode.EXCLUSIVE)

    def test_shared_conflicts_with_exclusive(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflict):
            tm.locks.acquire(2, "r", LockMode.SHARED)

    def test_reacquire_is_noop(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "r", LockMode.SHARED)
        tm.locks.acquire(1, "r", LockMode.SHARED)
        assert list(tm.locks._held[1]) == ["r"]

    def test_upgrade_sole_holder(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "r", LockMode.SHARED)
        tm.locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflict):
            tm.locks.acquire(2, "r", LockMode.SHARED)

    def test_upgrade_blocked_by_cohoders(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "r", LockMode.SHARED)
        tm.locks.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockConflict):
            tm.locks.acquire(1, "r", LockMode.EXCLUSIVE)

    def test_release_all_frees_resources(self):
        tm = TransactionManager(AddressSpace())
        tm.locks.acquire(1, "a", LockMode.EXCLUSIVE)
        tm.locks.acquire(1, "b", LockMode.SHARED)
        assert tm.locks.release_all(1) == 2
        tm.locks.acquire(2, "a", LockMode.EXCLUSIVE)  # now free


class TestTransactions:
    def test_commit_releases_locks(self):
        tm = TransactionManager(AddressSpace())
        txn = tm.begin()
        txn.lock("r", LockMode.EXCLUSIVE)
        tm.commit(txn)
        assert txn.state == "committed"
        assert tm.locks.holders("r") == set()
        assert tm.committed == 1

    def test_abort_releases_locks(self):
        tm = TransactionManager(AddressSpace())
        txn = tm.begin()
        txn.lock("r", LockMode.EXCLUSIVE)
        tm.abort(txn)
        assert txn.state == "aborted"
        assert tm.locks.holders("r") == set()

    def test_use_after_commit_rejected(self):
        tm = TransactionManager(AddressSpace())
        txn = tm.begin()
        tm.commit(txn)
        with pytest.raises(RuntimeError):
            txn.lock("r", LockMode.SHARED)
        with pytest.raises(RuntimeError):
            tm.commit(txn)

    def test_txn_ids_unique(self):
        tm = TransactionManager(AddressSpace())
        ids = {tm.begin().txn_id for _ in range(10)}
        assert len(ids) == 10


class TestLog:
    def test_lsn_monotonic(self):
        log = LogManager(AddressSpace())
        lsns = [log.append(100) for _ in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_stats(self):
        log = LogManager(AddressSpace())
        log.append(64)
        log.append(100)
        assert log.records == 2
        assert log.bytes_written == 164

    def test_rejects_empty_record(self):
        log = LogManager(AddressSpace())
        with pytest.raises(ValueError):
            log.append(0)

    def test_commit_writes_log(self):
        tm = TransactionManager(AddressSpace())
        txn = tm.begin()
        tm.commit(txn)
        assert tm.log.records == 1
