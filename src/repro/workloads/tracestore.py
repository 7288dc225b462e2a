"""Content-addressed on-disk store for built workload trace bundles.

Building a workload means actually executing every TPC-C transaction and
TPC-H query through the DB engine — by far the most expensive part of a
cold sweep, and ``workloads/driver.py``'s bundle registry only memoizes
it *per process*.  This store freezes a built :class:`Workload`'s trace
columns (``array.tobytes``) plus footprints and metadata to disk, keyed
by (builder, sorted params) — the same key the registry uses — and the
engine version, so any later process — a spawn-started pool worker, the
next CI step, the chaos job — loads the frozen bytes instead of
re-running the engine.

:class:`TraceStore` is the workload codec over :class:`repro.store.Store`,
which owns the addressing, framing (checksum and key echo), atomic
writes, the ``REPRO_CACHE_BUDGET`` LRU budget and the counters
(DESIGN.md §9): a corrupt, truncated, or misfiled entry is a counted
miss, so the store can never serve wrong traces, only fail to serve.
The key is hashed together with :data:`TRACE_VERSION`; bumping that
constant invalidates every stored bundle at once.  Bump it whenever the
engine or the trace format changes what a builder would produce.

The store is enabled by pointing :data:`ENV_TRACE_DIR` (``REPRO_TRACE_DIR``)
at a directory; without it, behaviour is exactly as before.
"""

from __future__ import annotations

import pickle
import struct
from pathlib import Path

from array import array

from ..settings import Settings
from ..simulator.trace import (
    CodeFootprint,
    Trace,
    Workload,
    pack_meta,
    unpack_meta,
)
from ..store import Store

#: Engine/format version salt.  Part of every hashed key: bump on any
#: change to trace building or the serialized layout.  v3: address,
#: event-kind and packed event-table columns stored raw (DESIGN.md §11).
#: v4: framed by :class:`repro.store.Store`; the document no longer
#: echoes the version and key.
TRACE_VERSION = "repro-traces-v4"

#: Environment variable holding the store root directory.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

#: Payload prelude: u64 length of the pickled metadata document that
#: precedes the raw column blobs.
_DOC_LEN = struct.Struct("<Q")


def _freeze(workload: Workload) -> bytes:
    """Serialize a workload to a payload blob.

    Layout: ``u64 doc_len | pickle(doc) | raw column bytes``.  The pickled
    document holds only small metadata (names, footprints, column
    typecodes, per-trace blob offsets); each trace's address column,
    event-kind column and event table (as packed 64-bit words) land raw
    in native byte order, so :func:`_thaw` reconstructs them with one
    buffer copy per column — no per-event decoding.
    """
    traces = []
    blobs = []
    offset = 0
    for tr in workload.traces:
        table = array("Q", (pack_meta(*e) for e in tr.events))
        traces.append({
            "name": tr.name,
            "ilp": tr.ilp,
            "ilp_inorder": tr.ilp_inorder,
            "branch_mpki": tr.branch_mpki,
            "footprints": [(fp.name, fp.base, fp.n_lines)
                           for fp in tr.footprints],
            "n_events": len(tr),
            "n_kinds": len(table),
            "typecodes": (tr.addrs.typecode, tr.kinds.typecode),
            "offset": offset,
        })
        for column in (tr.addrs, tr.kinds, table):
            blob = column.tobytes()
            blobs.append(blob)
            offset += len(blob)
    doc = pickle.dumps({
        "name": workload.name,
        "kind": workload.kind,
        "saturated": workload.saturated,
        "metadata": workload.metadata,
        "traces": traces,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join([_DOC_LEN.pack(len(doc)), doc] + blobs)


def _thaw(payload) -> Workload:
    """Rebuild a workload from a payload blob; raises on any mismatch."""
    if len(payload) < _DOC_LEN.size:
        raise ValueError("truncated payload prelude")
    (doc_len,) = _DOC_LEN.unpack_from(payload)
    blob_base = _DOC_LEN.size + doc_len
    if len(payload) < blob_base:
        raise ValueError("truncated metadata document")
    doc = pickle.loads(payload[_DOC_LEN.size:blob_base])
    view = memoryview(payload)
    traces = []
    for td in doc["traces"]:
        addr_type, kind_type = td["typecodes"]
        columns = []
        lo = blob_base + td["offset"]
        for typecode, n in ((addr_type, td["n_events"]),
                            (kind_type, td["n_events"]),
                            ("Q", td["n_kinds"])):
            column = array(typecode)
            hi = lo + n * column.itemsize
            if hi > len(payload):
                raise ValueError("truncated column data")
            column.frombytes(view[lo:hi])
            columns.append(column)
            lo = hi
        addrs, kinds, table = columns
        traces.append(Trace(
            name=td["name"],
            addrs=addrs,
            kinds=kinds,
            events=tuple(map(unpack_meta, table)),
            footprints=[CodeFootprint(name=n, base=b, n_lines=nl)
                        for n, b, nl in td["footprints"]],
            ilp=td["ilp"],
            branch_mpki=td["branch_mpki"],
            ilp_inorder=td["ilp_inorder"],
        ))
    return Workload(
        name=doc["name"],
        traces=traces,
        kind=doc["kind"],
        saturated=doc["saturated"],
        metadata=doc["metadata"],
    )


class TraceStore(Store):
    """One trace-store root; safe for concurrent processes."""

    def __init__(self, root: str | Path):
        super().__init__(root, TRACE_VERSION, ".trace")

    def get(self, key) -> Workload | None:
        """The workload stored for ``key``, or None (a counted miss)."""
        return self.load(key, _thaw)

    def put(self, key, workload: Workload) -> None:
        """Store ``workload`` under ``key``; best-effort."""
        self.save(key, workload, _freeze)


#: Per-root store instances, so stats accumulate across call sites.
_STORES: dict[str, TraceStore] = {}


def store_for(root: str | Path) -> TraceStore:
    """The (memoized) store rooted at ``root``."""
    key = str(root)
    store = _STORES.get(key)
    if store is None:
        store = _STORES[key] = TraceStore(key)
    return store


def active_store() -> TraceStore | None:
    """The store named by ``REPRO_TRACE_DIR``, budgeted by
    ``REPRO_CACHE_BUDGET``, or None when the directory is unset/empty."""
    # Resolved at call time, not once per Experiment: bundles are built
    # in pool workers, which inherit the environment, and perf/worker.py
    # sets REPRO_TRACE_DIR after import.
    settings = Settings.from_env()
    if settings.trace_dir is None:
        return None
    store = store_for(settings.trace_dir)
    store.budget_bytes = settings.cache_budget
    return store
