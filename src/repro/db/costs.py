"""Instruction-cost model: how many instructions each engine operation runs.

The trace records "N instructions of computation, then a data reference".
These constants supply the N for each engine code path.  They are derived
from instruction-per-tuple measurements reported for commercial engines of
the period (a few tens of instructions to advance a scan, a few hundred per
B+-tree level including comparisons and latching, a few thousand per
transaction for logging/locking overhead) — the characterization's shapes
depend on their *ratios*, not their absolute values.

Code-footprint sizes (bytes of instruction text per module) are what make
OLTP's instruction working set exceed the L1I while a single DSS operator
pipeline fits — the paper's "large instruction footprints" property.
"""

from __future__ import annotations

# --------------------------------------------------------------------- #
# Instructions per operation                                             #
# --------------------------------------------------------------------- #

#: Advance a sequential scan to the next tuple and decode it.
SCAN_NEXT = 18
#: Evaluate one simple predicate term.
PREDICATE = 8
#: Copy/emit one output tuple.
EMIT_TUPLE = 12
#: Hash a key (join build/probe, hash aggregation).
HASH_KEY = 22
#: Walk one hash-chain element.
HASH_CHAIN_STEP = 10
#: Insert into a hash table (after hashing).
HASH_INSERT = 25
#: One B+-tree node: binary search within the node plus latch.
BTREE_NODE_SEARCH = 28
#: B+-tree leaf entry handling (slot lookup, record pointer decode).
BTREE_LEAF_ENTRY = 12
#: Aggregate accumulator update (sum/count/avg bump).
AGG_UPDATE = 15
#: Buffer-pool hash lookup for a page.
BUFFER_LOOKUP = 20
#: Pin/unpin bookkeeping.
BUFFER_PIN = 10
#: Acquire or release one lock.
LOCK_ACQUIRE = 30
LOCK_RELEASE = 14
#: Format one log record into the log buffer.
LOG_RECORD = 40
#: Per-transaction begin/commit bookkeeping.
TXN_BEGIN = 80
TXN_COMMIT = 130
#: Fixed per-query plan setup (optimizer stub, plan instantiation).
QUERY_SETUP = 2000
#: Kernel/scheduler overhead charged when a client switches transactions.
CONTEXT_SWITCH = 200

# --------------------------------------------------------------------- #
# Code footprints (bytes of instruction text per module)                 #
# --------------------------------------------------------------------- #

CODE_FOOTPRINTS: dict[str, int] = {
    # Query operators (DSS pipelines touch a handful of these).
    "exec.seqscan": 6 * 1024,
    "exec.filter": 4 * 1024,
    "exec.hashjoin": 14 * 1024,
    "exec.aggregate": 10 * 1024,
    # Storage layer.
    "storage.heap": 7 * 1024,
    "storage.btree": 16 * 1024,
    "storage.buffer": 9 * 1024,
    "storage.page": 5 * 1024,
    # Transaction layer (OLTP touches all of these every transaction,
    # which is what blows the instruction working set past the L1I).
    "txn.lock": 11 * 1024,
    "txn.log": 8 * 1024,
    "txn.manager": 10 * 1024,
    "txn.neworder": 22 * 1024,
    "txn.payment": 16 * 1024,
    "txn.orderstatus": 12 * 1024,
    "txn.delivery": 14 * 1024,
    "txn.stocklevel": 10 * 1024,
    # Common runtime.
    "rt.parser": 18 * 1024,
    "rt.catalog": 6 * 1024,
    "rt.kernel": 20 * 1024,
}
