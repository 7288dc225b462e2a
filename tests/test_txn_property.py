"""Property tests: the lock managers against naive reference models.

The wound-wait executor and the trace engine both lean on
:class:`repro.db.txn.LockManager` honoring exactly the textbook
shared/exclusive compatibility matrix — a lock silently granted where
the matrix says conflict would let a non-serializable schedule through
the oracle unnoticed.  Hypothesis drives random acquire/release command
streams into the real manager and an oblivious dict-based model and
demands they agree on every outcome, every holder set, and every held
count; a final drain must leave no leaked table entries.

The subprocess test pins a subtler property: release order (and with it
the replayed trace) must not depend on ``PYTHONHASHSEED`` — the manager
tracks held resources in insertion order precisely so that traces are
reproducible across processes.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.txn import (
    LockConflict,
    LockManager,
    LockMode,
    PartitionLockManager,
)
from repro.simulator.addresses import AddressSpace


class ReferenceLocks:
    """Oblivious lock table: the compatibility matrix, nothing else."""

    def __init__(self):
        self.table = {}  # resource -> [mode, set(holders)]

    def acquire(self, txn, resource, mode):
        """Returns True if granted, False if the matrix says conflict."""
        entry = self.table.get(resource)
        if entry is None:
            self.table[resource] = [mode, {txn}]
            return True
        held_mode, holders = entry
        if txn in holders:
            if mode is LockMode.EXCLUSIVE and held_mode is LockMode.SHARED:
                if len(holders) == 1:
                    entry[0] = LockMode.EXCLUSIVE
                    return True
                return False
            return True
        if held_mode is LockMode.SHARED and mode is LockMode.SHARED:
            holders.add(txn)
            return True
        return False

    def release_all(self, txn):
        for resource in list(self.table):
            mode, holders = self.table[resource]
            holders.discard(txn)
            if not holders:
                del self.table[resource]

    def holders(self, resource):
        entry = self.table.get(resource)
        return set(entry[1]) if entry else set()


commands = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.integers(0, 3),
                  st.integers(0, 5), st.booleans()),
        st.tuples(st.just("release"), st.integers(0, 3)),
    ),
    max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(commands)
def test_lock_manager_matches_reference(cmds):
    lm = LockManager(AddressSpace())
    ref = ReferenceLocks()
    resources = set()
    for cmd in cmds:
        if cmd[0] == "acquire":
            _, txn, res, exclusive = cmd
            resource = ("row", res)
            resources.add(resource)
            mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
            expected = ref.acquire(txn, resource, mode)
            try:
                lm.acquire(txn, resource, mode)
                granted = True
            except LockConflict:
                granted = False
            assert granted == expected, (cmd, lm._table)
        else:
            _, txn = cmd
            ref.release_all(txn)
            lm.release_all(txn)
        for resource in resources:
            assert lm.holders(resource) == ref.holders(resource)
    # Drain: releasing every transaction must leave nothing behind.
    for txn in range(4):
        lm.release_all(txn)
        assert txn not in lm._held
    assert lm._table == {}
    assert lm._held == {}


@settings(max_examples=80, deadline=None)
@given(commands)
def test_release_all_restores_invariants(cmds):
    """After any prefix, release_all(txn) leaves txn with nothing and
    every other holder untouched."""
    lm = LockManager(AddressSpace())
    for cmd in cmds:
        if cmd[0] == "acquire":
            _, txn, res, exclusive = cmd
            try:
                lm.acquire(txn, ("row", res),
                           LockMode.EXCLUSIVE if exclusive
                           else LockMode.SHARED)
            except LockConflict:
                pass
        else:
            lm.release_all(cmd[1])
    before = {t: {r for r, e in lm._table.items() if t in e.holders}
              for t in range(4)}
    lm.release_all(0)
    assert 0 not in lm._held
    for resource in before[0]:
        assert 0 not in lm.holders(resource)
    for txn in range(1, 4):
        assert {r for r, e in lm._table.items()
                if txn in e.holders} == before[txn]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3),
                          st.sets(st.integers(0, 7), min_size=1)),
                max_size=40))
def test_partition_locks_single_owner(claims):
    """PartitionLockManager: one owner per partition, full release.

    Each claim is acquired partition by partition in ascending order, as
    the partitioned TPC-C path does; a conflict aborts the transaction,
    which releases every partition it holds."""
    plm = PartitionLockManager(AddressSpace(), 8)
    owner = {}
    for txn, partitions in claims:
        blocked = any(owner.get(p, txn) != txn for p in partitions)
        try:
            for p in sorted(partitions):
                plm.acquire(txn, p)
            assert not blocked
            for p in partitions:
                owner[p] = txn
        except LockConflict:
            assert blocked
            plm.release_all(txn)
            owner = {p: t for p, t in owner.items() if t != txn}
        for p in range(8):
            assert plm._owner.get(p) == owner.get(p)
    for txn in range(4):
        plm.release_all(txn)
        owner = {p: t for p, t in owner.items() if t != txn}
    assert plm._owner == {}


_HASHSEED_SCRIPT = r"""
import sys
from repro.db.txn import LockManager, LockMode
from repro.simulator.addresses import AddressSpace

class Recorder:
    def __init__(self):
        self.addrs = []
    def enter(self, name):
        pass
    def compute(self, cost):
        pass
    def data(self, addr, write=False, dependent=False):
        self.addrs.append(addr)

lm = LockManager(AddressSpace())
resources = [("stock", 3, 17), ("district", 0, 4), "warehouse:2",
             ("customer", 1, 2, 3), ("order", 99), "item:41"]
for r in resources:
    lm.acquire(7, r, LockMode.EXCLUSIVE)
rec = Recorder()
lm.release_all(7, rec)
print(",".join(str(a) for a in rec.addrs))
"""


def test_release_order_is_hashseed_independent():
    """The trace replayed by release_all must not vary with the hash
    seed (PYTHONHASHSEED differs across CI processes)."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_SCRIPT],
                              capture_output=True, text=True, env=env,
                              check=True)
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]
    assert outputs[0]  # non-empty: the tracer really saw the releases
    assert len(outputs[0].split(",")) == 6
