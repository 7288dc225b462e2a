"""Content-addressed on-disk store for built workload trace bundles.

Building a workload means actually executing every TPC-C transaction and
TPC-H query through the DB engine — by far the most expensive part of a
cold sweep, and ``workloads/driver.py``'s ``functools.lru_cache`` only
memoizes it *per process*.  This store freezes a built :class:`Workload`'s
trace columns (``array.tobytes``) plus footprints and metadata to
disk, keyed by (builder, params, engine version), so any later process —
a spawn-started pool worker, the next CI step, the chaos job — loads the
frozen bytes instead of re-running the engine.

Integrity and invalidation rules (DESIGN.md §9):

- The key is hashed together with :data:`TRACE_VERSION`; bumping that
  constant invalidates every stored bundle at once.  Bump it whenever the
  engine or the trace format changes what a builder would produce.
- Each entry carries a payload checksum and echoes its full key; a
  corrupt, truncated, or colliding entry is *detected and treated as a
  miss* (counted in ``stats.errors``) so the caller rebuilds — the store
  can never serve wrong traces, only fail to serve.
- Writes go to a temp file in the same directory and ``os.replace`` into
  place, so concurrent writers and readers never observe partial entries.

The store is enabled by pointing :data:`ENV_TRACE_DIR` (``REPRO_TRACE_DIR``)
at a directory; without it, behaviour is exactly as before.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
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

#: Engine/format version salt.  Part of every hashed key: bump on any
#: change to trace building or the serialized layout.  v3: address,
#: event-kind and packed event-table columns stored raw (DESIGN.md §11).
TRACE_VERSION = "repro-traces-v3"

#: Environment variable holding the store root directory.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

#: Entry file magic ("Repro Trace, Columnar, v3").  Older entries carry
#: ``b"RTRC"`` (v1) or ``b"RTC2"`` (v2): a different magic, so an
#: old-format file is rejected at the header check — a clean miss, never a
#: misparse.
_MAGIC = b"RTC3"

#: Fixed header: magic + u64 payload length + 32-byte SHA-256 of payload.
_HEADER = struct.Struct("<4sQ32s")

#: Payload prelude: u64 length of the pickled metadata document that
#: precedes the raw column blobs.
_DOC_LEN = struct.Struct("<Q")


@dataclass
class TraceStoreStats:
    """Store activity counters (per-root, accumulated per process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}


def _freeze(key, workload: Workload) -> bytes:
    """Serialize a workload (with its key echoed) to a payload blob.

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
        "version": TRACE_VERSION,
        "key": key,
        "name": workload.name,
        "kind": workload.kind,
        "saturated": workload.saturated,
        "metadata": workload.metadata,
        "traces": traces,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join([_DOC_LEN.pack(len(doc)), doc] + blobs)


def _thaw(payload: bytes, key) -> Workload:
    """Rebuild a workload from a payload blob; raises on any mismatch."""
    if len(payload) < _DOC_LEN.size:
        raise ValueError("truncated payload prelude")
    (doc_len,) = _DOC_LEN.unpack_from(payload)
    blob_base = _DOC_LEN.size + doc_len
    if len(payload) < blob_base:
        raise ValueError("truncated metadata document")
    doc = pickle.loads(payload[_DOC_LEN.size:blob_base])
    if doc["version"] != TRACE_VERSION:
        raise ValueError(f"trace entry version {doc['version']!r}")
    if doc["key"] != key:
        raise ValueError("trace entry key mismatch (hash collision?)")
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


class TraceStore:
    """One store root; safe for concurrent processes (atomic writes)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.stats = TraceStoreStats()

    def path_for(self, key) -> Path:
        """Entry path: two-level fan-out under the root, hashed key name."""
        digest = hashlib.sha256(repr((TRACE_VERSION, key)).encode()).hexdigest()
        return self.root / digest[:2] / f"{digest}.trace"

    def get(self, key) -> Workload | None:
        """Load the workload stored for ``key``, or None.

        Any unreadable, truncated, corrupt, or mismatched entry counts as
        an error *and* a miss; it is deleted (best-effort) so the rebuilt
        entry replaces it.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            if len(blob) < _HEADER.size:
                raise ValueError("truncated header")
            magic, length, checksum = _HEADER.unpack_from(blob)
            if magic != _MAGIC:
                raise ValueError("bad magic")
            payload = blob[_HEADER.size:]
            if len(payload) != length:
                raise ValueError("truncated payload")
            if hashlib.sha256(payload).digest() != checksum:
                raise ValueError("checksum mismatch")
            workload = _thaw(payload, key)
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return workload

    def put(self, key, workload: Workload) -> None:
        """Store ``workload`` under ``key`` atomically; errors are counted
        and swallowed (a failed store only costs a future rebuild)."""
        path = self.path_for(key)
        try:
            payload = _freeze(key, workload)
            blob = _HEADER.pack(_MAGIC, len(payload),
                                hashlib.sha256(payload).digest()) + payload
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            self.stats.errors += 1
            return
        self.stats.stores += 1


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
    """The store named by ``REPRO_TRACE_DIR``, or None when unset/empty."""
    # Resolved at call time, not once per Experiment: bundles are built
    # in pool workers, which inherit the environment, and perf/worker.py
    # sets REPRO_TRACE_DIR after import.
    root = Settings.from_env().trace_dir
    if root is None:
        return None
    return store_for(root)
