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
from repro.workloads import driver
from repro.workloads.tracestore import (
    ENV_TRACE_DIR,
    _HEADER,
    _MAGIC,
    TraceStore,
    store_for,
)
from tests.trace_events import trace_events

#: Matches the determinism/golden suites so the process-level lru_cache
#: shares the (expensive) builds with them in a full test run.
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


def _tiny_workload(name="tiny"):
    """A hand-built two-trace workload (no engine run needed)."""
    traces = []
    for i in range(2):
        tb = TraceBuilder(f"{name}-client-{i}", ilp=2.0, branch_mpki=5.0,
                          ilp_inorder=1.0)
        rid = tb.register_code("code", 0x1000, 8)
        for j in range(50 + i):
            tb.event(j + 1, 0x4000_0000 + 64 * j, j % 8, rid)
        traces.append(tb.build())
    return Workload(name=name, traces=traces, kind="dss", saturated=False,
                    metadata={"scale": 1.0})


def _traces_equal(a: Workload, b: Workload) -> bool:
    if len(a.traces) != len(b.traces):
        return False
    for ta, tb in zip(a.traces, b.traces):
        if (ta.name, ta.ilp, ta.ilp_inorder, ta.branch_mpki) != \
                (tb.name, tb.ilp, tb.ilp_inorder, tb.branch_mpki):
            return False
        if trace_events(ta) != trace_events(tb):
            return False
        if [(f.name, f.base, f.n_lines) for f in ta.footprints] != \
                [(f.name, f.base, f.n_lines) for f in tb.footprints]:
            return False
    return True


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
        w = _tiny_workload()
        store.put(("k", 1), w)
        assert store.stats.stores == 1
        got = store.get(("k", 1))
        assert got is not None and got is not w
        assert _traces_equal(w, got)
        assert (got.name, got.kind, got.saturated, got.metadata) == \
            (w.name, w.kind, w.saturated, w.metadata)
        assert store.stats.hits == 1 and store.stats.errors == 0

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
        assert _traces_equal(fresh, thawed)
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
        assert _traces_equal(w, store.get(("wide",)))

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
        """A ``repro-traces-v2`` entry (two ``'Q'`` columns, ``RTC2``
        magic) is never served: at its own path the v3 store does not
        look, and misfiled at the v3 path it fails the header check."""
        key = ("k", 1)
        w = _tiny_workload()
        doc = pickle.dumps({
            "version": "repro-traces-v2", "key": key, "name": w.name,
            "kind": w.kind, "saturated": w.saturated,
            "metadata": w.metadata,
            "traces": [{"name": "c", "ilp": 2.0, "ilp_inorder": 1.0,
                        "branch_mpki": 5.0, "footprints": [],
                        "n_events": 1, "offset": 0}],
        })
        payload = (struct.pack("<Q", len(doc)) + doc
                   + array("Q", [0x4000_0000, pack_meta(1)]).tobytes())
        blob = _HEADER.pack(b"RTC2", len(payload),
                            hashlib.sha256(payload).digest()) + payload
        store = TraceStore(tmp_path)
        digest = hashlib.sha256(
            repr(("repro-traces-v2", key)).encode()).hexdigest()
        v2_path = tmp_path / digest[:2] / f"{digest}.trace"
        assert v2_path != store.path_for(key)
        v2_path.parent.mkdir(parents=True)
        v2_path.write_bytes(blob)
        assert store.get(key) is None
        assert store.stats.misses == 1 and store.stats.errors == 0

        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        assert store.get(key) is None
        assert store.stats.errors == 1 and not path.exists()
        store.put(key, w)
        assert _traces_equal(store.get(key), w)


class TestCorruption:
    def _stored_path(self, tmp_path, key=("k", 1)):
        store = TraceStore(tmp_path)
        store.put(key, _tiny_workload())
        return store, store.path_for(key)

    def test_truncated_entry_is_miss_then_rebuilt(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1 and store.stats.misses == 1
        assert not path.exists()          # bad entry removed...
        store.put(("k", 1), _tiny_workload())
        assert store.get(("k", 1)) is not None   # ...and rebuilt cleanly

    def test_truncated_header_is_miss(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        path.write_bytes(b"RT")
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[_HEADER.size + 7] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1

    def test_bad_magic_is_miss(self, tmp_path):
        store, path = self._stored_path(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1
        assert _MAGIC == b"RTC3"

    def test_old_format_entry_is_clean_miss(self, tmp_path):
        """A v1 entry (``RTRC`` magic, pickled-arrays payload) at the
        right path is rejected at the header check — an error-counted
        miss, never a misparse — then unlinked and rebuilt."""
        store, path = self._stored_path(tmp_path)
        payload = pickle.dumps({"version": "repro-traces-v1"})
        blob = _HEADER.pack(b"RTRC", len(payload),
                            hashlib.sha256(payload).digest()) + payload
        path.write_bytes(blob)
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1 and store.stats.misses == 1
        assert not path.exists()
        store.put(("k", 1), _tiny_workload())
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
        assert store.stats.errors == 1
        assert not path.exists()
        store.put(("k", 1), _tiny_workload())
        got = store.get(("k", 1))
        assert got is not None and _traces_equal(got, _tiny_workload())

    def test_truncated_column_data_is_miss(self, tmp_path):
        """An entry whose payload-length and checksum are valid but whose
        per-trace offsets point past the end (internal truncation) is
        caught by the column bounds check."""
        from repro.workloads.tracestore import _freeze
        store = TraceStore(tmp_path)
        payload = bytearray(_freeze(("k", 1), _tiny_workload()))
        payload = bytes(payload[:-16])     # drop the final column words
        blob = _HEADER.pack(_MAGIC, len(payload),
                            hashlib.sha256(payload).digest()) + payload
        path = store.path_for(("k", 1))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1

    def test_key_echo_rejects_misfiled_entry(self, tmp_path):
        """An entry sitting at the wrong path (hash collision, copied
        file) is rejected by the embedded key echo."""
        store, path = self._stored_path(tmp_path, key=("k", 1))
        other = store.path_for(("k", 2))
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_bytes(path.read_bytes())
        assert store.get(("k", 2)) is None
        assert store.stats.errors == 1

    def test_garbage_payload_is_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        payload = b"not a pickle"
        blob = _HEADER.pack(_MAGIC, len(payload),
                            hashlib.sha256(payload).digest()) + payload
        path = store.path_for(("k", 1))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        assert store.get(("k", 1)) is None
        assert store.stats.errors == 1

    def test_missing_entry_is_plain_miss_not_error(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get(("absent",)) is None
        assert store.stats.misses == 1 and store.stats.errors == 0


class TestDriverWiring:
    @pytest.mark.slow
    def test_second_process_equivalent_build_is_served_from_store(
            self, tmp_path, monkeypatch):
        """Clearing the lru_cache stands in for a new process: the second
        build must come from the store and carry identical arrays."""
        monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path))
        _clear_driver_caches()
        try:
            w1 = driver.dss_unsaturated(scale=SCALE)
            store = store_for(str(tmp_path))
            assert store.stats.stores == 1
            _clear_driver_caches()
            w2 = driver.dss_unsaturated(scale=SCALE)
            assert store.stats.hits == 1
            assert w2 is not w1
            assert _traces_equal(w1, w2)
        finally:
            # Leave no store-thawed workloads memoized for other tests.
            _clear_driver_caches()

    def test_unset_env_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_TRACE_DIR, "")
        from repro.workloads.tracestore import active_store
        assert active_store() is None
