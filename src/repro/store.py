"""One content-addressed on-disk store, shared by every persistent layer.

The trace store (:mod:`repro.workloads.tracestore`) and the result cache
(:class:`repro.core.parallel.ResultCache`) are thin codecs over
:class:`Store`: each supplies an encode, a decode and a version salt.
Everything else lives here, once (DESIGN.md §9):

- **Addressing.** A key is hashed with SHA-256 over ``repr((salt, key))``
  (its *identity text*) into ``root/<2 hex>/<64 hex><suffix>``.  Bumping
  a layer's salt re-addresses every entry, so stale entries are never
  read and need no scan or manifest.
- **Framing.** An entry is a fixed header (magic, identity length,
  payload length, SHA-256 of the payload), the identity text, then the
  payload.  A flipped or truncated byte anywhere fails the magic, the
  identity echo, the length or the checksum; a misfiled entry (a copied
  file, a hash collision) fails the identity echo.  Entries written
  before the framing existed (a raw result pickle, a ``RTRC``/``RTC2``/
  ``RTC3`` trace entry) fail the magic check.
- **Failure is a miss.**  An unreadable, corrupt or mismatched entry is
  counted as an error *and* a miss and unlinked (best effort), so the
  caller rebuilds and its store replaces it; a failed store is counted
  and swallowed.  The store can cost recomputation, never a wrong value
  or a crash.
- **Atomic writes.**  An entry lands by ``os.replace`` of a private temp
  file in its shard directory, so racing writers and readers never see a
  torn entry.
- **LRU budget.**  With ``budget_bytes`` (the ``REPRO_CACHE_BUDGET``
  knob, applied to each root separately) every hit refreshes its entry's
  mtime, and a store that pushes the root past the budget unlinks
  oldest-mtime entries until it fits, never the entry just stored.  The
  ``*.tmp`` file a writer killed before its ``os.replace`` leaves behind
  counts against the budget and goes oldest-first with the entries.
  Unlinking is safe against concurrent readers: one that already opened
  the file keeps its data (POSIX); one that loses the race takes a miss.

This module imports only the standard library, so both ``workloads/``
and ``core/`` can build on it.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

#: Entry magic ("Repro STore, v1").
MAGIC = b"RST1"

#: Entry header: magic, u32 identity-text length, u64 payload length,
#: SHA-256 of the payload.  The identity text and the payload follow.
_HEADER = struct.Struct("<4sIQ32s")


def _unframe(blob: bytes, identity: bytes) -> memoryview:
    """The payload of a framed entry; raises ValueError on any damage."""
    if len(blob) < _HEADER.size:
        raise ValueError("truncated header")
    magic, identity_len, length, checksum = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError("bad magic")
    start = _HEADER.size + identity_len
    if blob[_HEADER.size:start] != identity:
        raise ValueError("identity mismatch (misfiled entry)")
    payload = memoryview(blob)[start:]
    if len(payload) != length:
        raise ValueError("truncated payload")
    if hashlib.sha256(payload).digest() != checksum:
        raise ValueError("checksum mismatch")
    return payload


class Store:
    """One store root; safe for concurrent processes.

    Attributes:
        hits/misses/stores/errors/evictions: Lifetime accounting for
            tests and reporting (see :meth:`stats`).
    """

    def __init__(self, root: str | Path, salt: str, suffix: str,
                 budget_bytes: int | None = None):
        self.root = Path(root)
        self.salt = salt
        self.suffix = suffix
        self.budget_bytes = (int(budget_bytes)
                             if budget_bytes is not None and budget_bytes > 0
                             else None)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.evictions = 0

    def _identity(self, key) -> bytes:
        return repr((self.salt, key)).encode("utf-8")

    def path_for(self, key) -> Path:
        """Entry path: two-level fan-out under the root, hashed key name."""
        digest = hashlib.sha256(self._identity(key)).hexdigest()
        return self.root / digest[:2] / (digest + self.suffix)

    def load(self, key, decode):
        """``decode(payload)`` of the entry stored for ``key``, or None.

        A missing entry is a plain miss.  Any other failure — unreadable
        file, damaged frame, or ``decode`` raising — counts as an error
        and a miss, and the entry is unlinked (best effort).
        """
        identity = self._identity(key)
        path = self.path_for(key)
        try:
            value = decode(_unframe(path.read_bytes(), identity))
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.errors += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        if self.budget_bytes is not None:
            try:
                os.utime(path)  # refresh LRU recency
            except OSError:
                pass
        return value

    def save(self, key, value, encode) -> None:
        """Store ``encode(value)`` under ``key`` atomically.

        Strictly best-effort: any failure — ``encode`` raising, an
        unwritable volume, a full disk — increments ``errors`` and
        returns.
        """
        identity = self._identity(key)
        path = self.path_for(key)
        tmp = None
        try:
            payload = encode(value)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_HEADER.pack(MAGIC, len(identity), len(payload),
                                      hashlib.sha256(payload).digest()))
                fh.write(identity)
                fh.write(payload)
            os.replace(tmp, path)
            tmp = None
        except Exception:
            self.errors += 1
            return
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.stores += 1
        if self.budget_bytes is not None:
            self._evict_to_budget(keep=path)

    def _evict_to_budget(self, keep: Path) -> None:
        """Unlink oldest-mtime entries until the root fits the budget.

        Left-over ``*.tmp`` files count and go like entries.  ``keep``
        (the entry just stored) is exempt, so a store never evicts its
        own payload even under a tiny budget.  A stat or unlink that
        loses a race with another evictor is skipped; a live writer
        whose temp file goes counts an error in :meth:`save`.
        """
        entries = []
        for pattern in ("*/*" + self.suffix, "*/*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):
            if total <= self.budget_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def stats(self) -> dict:
        """Lifetime accounting: hits, misses, stores, errors, evictions."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors,
                "evictions": self.evictions}
