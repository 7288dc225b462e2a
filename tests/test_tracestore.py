"""Cross-process trace store: round-trip fidelity and corruption safety.

The store may *never* change results (a stored+reloaded workload must be
bit-identical to a freshly built one) and may *never* crash a run (any
corrupt, truncated, or colliding entry is detected, counted, and treated
as a miss so the caller rebuilds).
"""

import dataclasses
import hashlib
import pickle
import struct
from array import array

import pytest

from repro.core.parallel import WARM_FRACTIONS
from repro.simulator.configs import fc_cmp
from repro.simulator.machine import Machine
from repro.simulator.trace import FLAG_WRITE, TraceBuilder, Workload, pack_meta
from repro.store import MAGIC
from repro.workloads import driver
from repro.workloads.tracestore import (
    ENV_TRACE_DIR,
    TraceStore,
    _freeze,
    store_for,
)
from tests.trace_events import tiny_workload, traces_equal

#: Matches the determinism/golden suites so the process-level bundle
#: registry shares the (expensive) builds with them in a full test run.
SCALE = 0.02

BUNDLES = [
    ("oltp", "saturated"),
    ("oltp", "unsaturated"),
    ("dss", "saturated"),
    ("dss", "unsaturated"),
]


@pytest.fixture(autouse=True)
def no_ambient_store(monkeypatch):
    """Keep the driver's store wiring out of tests that build directly."""
    monkeypatch.delenv(ENV_TRACE_DIR, raising=False)


def _clear_driver_caches():
    driver.clear_workload_caches()


#: The header of trace entries before the shared store framing
#: (``repro-traces-v1`` to ``v3``): magic, u64 payload length, SHA-256.
_OLD_HEADER = struct.Struct("<4sQ32s")


def _old_entry(magic: bytes, payload: bytes) -> bytes:
    """A trace entry in the pre-store layout."""
    return _OLD_HEADER.pack(magic, len(payload),
                            hashlib.sha256(payload).digest()) + payload


def _v2_payload(key) -> bytes:
    """A ``repro-traces-v2`` payload: two ``'Q'`` columns."""
    w = tiny_workload()
    doc = pickle.dumps({
        "version": "repro-traces-v2", "key": key, "name": w.name,
        "kind": w.kind, "saturated": w.saturated,
        "metadata": w.metadata,
        "traces": [{"name": "c", "ilp": 2.0, "ilp_inorder": 1.0,
                    "branch_mpki": 5.0, "footprints": [],
                    "n_events": 1, "offset": 0}],
    })
    return (struct.pack("<Q", len(doc)) + doc
            + array("Q", [0x4000_0000, pack_meta(1)]).tobytes())


def _v3_payload(key) -> bytes:
    """A ``repro-traces-v3`` payload: raw address, event-kind and event
    table columns after a document that echoes the version and key."""
    w = tiny_workload()
    tr = w.traces[0]
    table = array("Q", (pack_meta(*e) for e in tr.events))
    doc = pickle.dumps({
        "version": "repro-traces-v3", "key": key, "name": w.name,
        "kind": w.kind, "saturated": w.saturated,
        "metadata": w.metadata,
        "traces": [{"name": tr.name, "ilp": tr.ilp,
                    "ilp_inorder": tr.ilp_inorder,
                    "branch_mpki": tr.branch_mpki, "footprints": [],
                    "n_events": len(tr), "n_kinds": len(table),
                    "typecodes": (tr.addrs.typecode, tr.kinds.typecode),
                    "offset": 0}],
    })
    return (struct.pack("<Q", len(doc)) + doc + tr.addrs.tobytes()
            + tr.kinds.tobytes() + table.tobytes())


def _simulate(workload: Workload, kind: str, regime: str):
    config = fc_cmp(n_cores=2, l2_nominal_mb=1.0, scale=SCALE)
    return Machine(config).run(
        workload,
        mode="response" if regime == "unsaturated" else "throughput",
        measure_cycles=20_000,
        warm_fraction=WARM_FRACTIONS[kind],
    )


class TestRoundTrip:
    def test_tiny_workload_survives_byte_for_byte(self, tmp_path):
        store = TraceStore(tmp_path)
        w = tiny_workload()
        store.put(("k", 1), w)
        assert store.stores == 1
        got = store.get(("k", 1))
        assert got is not None and got is not w
        assert traces_equal(w, got)
        assert (got.name, got.kind, got.saturated, got.metadata) == \
            (w.name, w.kind, w.saturated, w.metadata)
        assert store.hits == 1 and store.errors == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("kind,regime", BUNDLES)
    def test_reloaded_bundle_gives_identical_machine_result(
            self, tmp_path, kind, regime):
        """The tentpole contract, per (kind, regime) bundle: simulating a
        stored+reloaded workload yields a field-for-field identical
        MachineResult — not approximately, identically."""
        fresh = driver.workload_for(kind, regime, SCALE)
        store = TraceStore(tmp_path)
        key = ("roundtrip", kind, regime, SCALE)
        store.put(key, fresh)
        thawed = store.get(key)
        assert thawed is not None and thawed is not fresh
        assert traces_equal(fresh, thawed)
        r_fresh = _simulate(fresh, kind, regime)
        r_thawed = _simulate(thawed, kind, regime)
        assert dataclasses.asdict(r_fresh) == dataclasses.asdict(r_thawed)


def _wide_workload(addr_base: int, n_kinds: int) -> Workload:
    """One trace over ``n_kinds`` distinct events from ``addr_base`` up."""
    tb = TraceBuilder("wide", ilp=2.0, branch_mpki=3.0, ilp_inorder=1.2)
    rid = tb.register_code("code", 0x10_0000, 16)
    for j in range(2_000):
        tb.event(1 + j % n_kinds, addr_base + 64 * (j * 7 % 600),
                 FLAG_WRITE if j % 3 == 0 else 0, rid)
    return Workload(name="wide", traces=[tb.build()], kind="dss")


class TestLayouts:
    @pytest.mark.parametrize("addr_base,addr_type",
                             [(0x4000_0000, "I"), (0x2_c588_0000, "Q")])
    @pytest.mark.parametrize("n_kinds,kind_type", [(20, "B"), (300, "H")])
    def test_both_widths_round_trip(self, tmp_path, addr_base, addr_type,
                                    n_kinds, kind_type):
        w = _wide_workload(addr_base, n_kinds)
        (tr,) = w.traces
        assert (tr.addrs.typecode, tr.kinds.typecode) == \
            (addr_type, kind_type)
        store = TraceStore(tmp_path)
        store.put(("wide",), w)
        (got,) = store.get(("wide",)).traces
        assert (got.addrs.typecode, got.kinds.typecode) == \
            (addr_type, kind_type)
        assert got.addrs == tr.addrs and got.kinds == tr.kinds
        assert got.events == tr.events
        assert traces_equal(w, store.get(("wide",)))

    def test_64_bit_trace_simulates_identically_after_store(self, tmp_path):
        w = _wide_workload(0x2_c588_0000, 20)
        assert w.traces[0].addrs.typecode == "Q"
        store = TraceStore(tmp_path)
        store.put(("wide",), w)
        thawed = store.get(("wide",))
        assert thawed.traces[0].addrs.typecode == "Q"
        config = fc_cmp(n_cores=2, l2_nominal_mb=1.0, scale=SCALE)
        results = [dataclasses.asdict(Machine(config).run(
            wl, measure_cycles=20_000, warm_fraction=0.5))
            for wl in (w, thawed)]
        assert results[0] == results[1]

    def test_v2_entry_is_clean_miss(self, tmp_path):
        """An entry of an older format (v2: two ``'Q'`` columns and
        ``RTC2`` magic; v3: raw columns and ``RTC3`` magic) is never
        served: at its own path the current store does not look, and
        misfiled at the current path it fails the magic check."""
        key = ("k", 1)
        for version, magic, payload in [
                ("repro-traces-v2", b"RTC2", _v2_payload(key)),
                ("repro-traces-v3", b"RTC3", _v3_payload(key))]:
            blob = _old_entry(magic, payload)
            root = tmp_path / version
            store = TraceStore(root)
            digest = hashlib.sha256(
                repr((version, key)).encode()).hexdigest()
            old_path = root / digest[:2] / f"{digest}.trace"
            assert old_path != store.path_for(key)
            old_path.parent.mkdir(parents=True)
            old_path.write_bytes(blob)
            assert store.get(key) is None
            assert store.misses == 1 and store.errors == 0

            path = store.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
            assert store.get(key) is None
            assert store.errors == 1 and not path.exists()
            store.put(key, tiny_workload())
            assert traces_equal(store.get(key), tiny_workload())


class TestCorruption:
    def _stored_path(self, tmp_path, key=("k", 1)):
        store = TraceStore(tmp_path)
        store.put(key, tiny_workload())
        return store, store.path_for(key)

    def test_truncated_entry_is_miss_then_rebuilt(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        assert store.get(("k", 1)) is None
        assert store.errors == 1 and store.misses == 1
        assert not path.exists()          # bad entry removed...
        store.put(("k", 1), tiny_workload())
        assert store.get(("k", 1)) is not None   # ...and rebuilt cleanly

    def test_truncated_header_is_miss(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        path.write_bytes(b"RT")
        assert store.get(("k", 1)) is None
        assert store.errors == 1

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        blob = bytearray(path.read_bytes())
        payload_start = len(blob) - len(_freeze(tiny_workload()))
        blob[payload_start + 7] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get(("k", 1)) is None
        assert store.errors == 1

    def test_bad_magic_is_miss(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        blob = bytearray(path.read_bytes())
        assert blob[:4] == MAGIC
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        assert store.get(("k", 1)) is None
        assert store.errors == 1

    def test_old_format_entry_is_clean_miss(self, tmp_path):
        """A v1 entry (``RTRC`` magic, pickled-arrays payload) or a v3
        entry (``RTC3`` magic, raw columns) at the right path is
        rejected at the magic check — an error-counted miss, never a
        misparse — then unlinked and rebuilt."""
        store, path = self._stored_path(tmp_path)
        for blob in (
                _old_entry(b"RTRC",
                           pickle.dumps({"version": "repro-traces-v1"})),
                _old_entry(b"RTC3", _v3_payload(("k", 1)))):
            errors, misses = store.errors, store.misses
            path.write_bytes(blob)
            assert store.get(("k", 1)) is None
            assert (store.errors, store.misses) == (errors + 1, misses + 1)
            assert not path.exists()
            store.put(("k", 1), tiny_workload())
            assert store.get(("k", 1)) is not None

    def test_flipped_column_byte_detected_and_rebuilt(self, tmp_path):
        """The header SHA covers the raw column blobs, not just the
        metadata document: one bit flipped deep inside the address
        column is detected, the entry unlinked, and a rebuild served."""
        store, path = self._stored_path(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01          # inside the last trace's event table
        path.write_bytes(bytes(blob))
        assert store.get(("k", 1)) is None
        assert store.errors == 1
        assert not path.exists()
        store.put(("k", 1), tiny_workload())
        got = store.get(("k", 1))
        assert got is not None and traces_equal(got, tiny_workload())

    def test_truncated_column_data_is_miss(self, tmp_path):
        """An entry whose payload-length and checksum are valid but whose
        per-trace offsets point past the end (internal truncation) is
        caught by the column bounds check."""
        store = TraceStore(tmp_path)
        payload = _freeze(tiny_workload())[:-16]  # drop the final words
        store.save(("k", 1), payload, bytes)
        assert store.get(("k", 1)) is None
        assert store.errors == 1

    def test_key_echo_rejects_misfiled_entry(self, tmp_path):
        """An entry sitting at the wrong path (hash collision, copied
        file) is rejected by the embedded key echo."""
        store, path = self._stored_path(tmp_path, key=("k", 1))
        other = store.path_for(("k", 2))
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_bytes(path.read_bytes())
        assert store.get(("k", 2)) is None
        assert store.errors == 1

    def test_garbage_payload_is_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save(("k", 1), b"not a pickle", bytes)
        assert store.get(("k", 1)) is None
        assert store.errors == 1

    def test_missing_entry_is_plain_miss_not_error(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get(("absent",)) is None
        assert store.misses == 1 and store.errors == 0


class TestDriverWiring:
    @pytest.mark.slow
    def test_second_process_equivalent_build_is_served_from_store(
            self, tmp_path, monkeypatch):
        """Clearing the bundle registry stands in for a new process: the
        second build must come from the store and carry identical
        arrays."""
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path))
        _clear_driver_caches()
        try:
            w1 = driver.dss_unsaturated(scale=SCALE)
            store = store_for(str(tmp_path))
            assert store.stores == 1
            _clear_driver_caches()
            w2 = driver.dss_unsaturated(scale=SCALE)
            assert store.hits == 1
            assert w2 is not w1
            assert traces_equal(w1, w2)
        finally:
            # Leave no store-thawed workloads memoized for other tests.
            _clear_driver_caches()

    def test_unset_env_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_TRACE_DIR, "")
        from repro.workloads.tracestore import active_store
        assert active_store() is None


class TestBundleIdentity:
    """One key names a bundle: the trace-store key, which the in-process
    registry shares, so every spelling of a bundle returns one object."""

    @pytest.mark.parametrize("kind,clients", [("oltp", 64), ("dss", 16)])
    def test_explicit_paper_clients_return_the_default_bundle(self, kind,
                                                               clients):
        assert (driver.workload_for(kind, "saturated", SCALE,
                                    n_clients=clients)
                is driver.workload_for(kind, "saturated", SCALE))

    def test_builder_and_dispatch_share_the_bundle(self):
        assert (driver.dss_workload(SCALE)
                is driver.workload_for("dss", "saturated", SCALE))

    def test_registry_is_keyed_by_the_store_key(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path))
        _clear_driver_caches()
        try:
            built = driver.dss_unsaturated(scale=SCALE)
            key = ("dss_unsaturated", (("scale", SCALE), ("seed", 7)))
            assert driver.built_bundles([built]) == {key: built}
            assert traces_equal(store_for(str(tmp_path)).get(key), built)
        finally:
            _clear_driver_caches()
