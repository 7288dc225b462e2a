"""Byte damage in either store layer is a counted miss, then a rebuild.

The result cache and the trace store frame their entries through one
:class:`repro.store.Store`.  Whatever single byte of a valid entry is
flipped, and wherever the entry is cut short, ``get`` returns None
without raising, counts one error and one miss, and unlinks the file;
the next ``Experiment`` re-simulates (or the next driver build rebuilds)
to a result identical to the undamaged one.
"""

import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import Experiment
from repro.core.parallel import ResultCache, RunSpec, execute
from repro.simulator.configs import fc_cmp
from repro.workloads import driver
from repro.workloads.tracestore import ENV_TRACE_DIR, TraceStore, store_for
from tests.trace_events import tiny_workload, traces_equal

SCALE = 0.02
CYCLES = 40_000
KEY = ("damage", 1)


def _config():
    return fc_cmp(n_cores=4, l2_nominal_mb=1.0, scale=SCALE)


@pytest.fixture(scope="module", params=["result", "trace"])
def layer(request):
    """``(make(root), value, same(a, b))`` for one store layer."""
    if request.param == "result":
        return (ResultCache, execute(RunSpec(_config(), "dss"), SCALE, CYCLES),
                lambda a, b: a == b)
    return TraceStore, tiny_workload(), traces_equal


def _entry(layer) -> bytes:
    """The bytes of a valid entry for :data:`KEY`."""
    make, value, _ = layer
    with tempfile.TemporaryDirectory() as root:
        store = make(root)
        store.put(KEY, value)
        return store.path_for(KEY).read_bytes()


def _assert_counted_miss_then_refill(layer, damaged: bytes) -> None:
    make, value, same = layer
    with tempfile.TemporaryDirectory() as root:
        store = make(root)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(damaged)
        assert store.get(KEY) is None
        assert (store.errors, store.misses, store.hits) == (1, 1, 0)
        assert not path.exists()
        store.put(KEY, value)
        assert same(store.get(KEY), value)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_flipped_byte_is_a_counted_miss(layer, data):
    blob = bytearray(_entry(layer))
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    _assert_counted_miss_then_refill(layer, bytes(blob))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_truncation_is_a_counted_miss(layer, data):
    blob = _entry(layer)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    _assert_counted_miss_then_refill(layer, blob[:cut])


@pytest.mark.slow
def test_flipped_ipc_bit_resimulates_to_the_same_result(tmp_path):
    """The low bit of the pickled ``ipc`` float, flipped on disk, still
    unpickles to a MachineResult; the checksum must reject it."""
    first = Experiment(scale=SCALE, measure_cycles=CYCLES,
                       cache_dir=str(tmp_path)).run(_config(), "dss")
    (path,) = tmp_path.glob("*/*.pkl")
    blob = bytearray(path.read_bytes())
    ipc = b"G" + struct.pack(">d", first.ipc)  # pickle's BINFLOAT opcode
    at = blob.index(ipc) + len(ipc) - 1
    blob[at] ^= 0x01
    path.write_bytes(bytes(blob))

    again = Experiment(scale=SCALE, measure_cycles=CYCLES,
                       cache_dir=str(tmp_path))
    assert again.run(_config(), "dss") == first
    assert again.sim_runs == 1
    assert (again.cache.errors, again.cache.misses) == (1, 1)


@pytest.mark.slow
def test_flipped_trace_byte_rebuilds_the_same_bundle(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_TRACE_DIR, str(tmp_path))
    driver.clear_workload_caches()
    try:
        first = driver.dss_unsaturated(scale=SCALE)
        (path,) = tmp_path.glob("*/*.trace")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        driver.clear_workload_caches()
        rebuilt = driver.dss_unsaturated(scale=SCALE)
        store = store_for(str(tmp_path))
        assert (store.errors, store.misses, store.hits) == (1, 2, 0)
        assert rebuilt is not first and traces_equal(rebuilt, first)
    finally:
        driver.clear_workload_caches()
