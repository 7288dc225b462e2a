"""Engine lifetime: a trace build frees its database by reference counting.

The studies are trace-driven: the engine runs once to emit the reference
stream, and only the traces are replayed.  Once a builder returns, its
``Database`` (address space, catalog, heap files, row caches) is dead
weight, and it must die by reference counting alone.  A reference cycle
through the engine (e.g. a heap file's row generator bound to the
database that owns the heap file) turns it into cyclic garbage that the
simulation loops, which allocate almost no new containers, never give the
cyclic collector a reason to reclaim.

Each case runs with automatic collection disabled, so any such cycle
keeps its ``Database`` alive and the test names the builder that leaked.

The build itself must stay lean too: the TPC-H tables are virtual and
their pages are generated on demand, so a DSS build's traced peak is a
small multiple of the trace columns it yields.
"""

import gc
import tracemalloc

import pytest

from repro.db.engine import Database
from repro.workloads import driver
from repro.workloads.contention import SkewSpec
from repro.workloads.tpch import TpchDatabase

SCALE = 0.01

#: (label, builder, kwargs): every driver builder, the contention opt-ins
#: of the OLTP one, and the bare TPC-H database the staged claim builds.
CASES = [
    ("oltp", driver.oltp_workload, {"n_clients": 2, "txns_per_client": 4}),
    ("oltp-skewed", driver.oltp_workload,
     {"n_clients": 2, "txns_per_client": 4, "skew": SkewSpec(theta=0.9)}),
    ("oltp-partitioned", driver.oltp_workload,
     {"n_clients": 2, "txns_per_client": 4, "cc_mode": "partitioned"}),
    ("oltp-unsat", driver.oltp_unsaturated, {"txns": 4}),
    ("dss", driver.dss_workload, {"n_clients": 2}),
    ("dss-unsat", driver.dss_unsaturated, {}),
    ("dss-parallel", driver.dss_parallel_query, {"n_partitions": 2}),
    ("tpch-bare", TpchDatabase, {"seed": 11}),
]


def _live_databases() -> list[Database]:
    return [o for o in gc.get_objects() if isinstance(o, Database)]


@pytest.mark.parametrize("label,builder,kwargs", CASES,
                         ids=[case[0] for case in CASES])
def test_build_frees_its_database(monkeypatch, label, builder, kwargs):
    # Build from the engine, not from a trace store.
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    driver.clear_workload_caches()
    gc.collect()
    before = _live_databases()  # held, so no id below is reused
    seen = {id(db) for db in before}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        built = builder(scale=SCALE, **kwargs)
        del built
        leaked = [db for db in _live_databases() if id(db) not in seen]
    finally:
        if was_enabled:
            gc.enable()
    assert not leaked, (
        f"{label}: {len(leaked)} Database(s) outlived the build "
        f"({', '.join(db.name for db in leaked)}); something the engine "
        "owns refers back to it")


#: Largest traced build peak, as a multiple of the bundle's column bytes.
#: Generating each page on demand holds a scale-0.05 DSS build at about
#: 2.5x; a memo of every generated page raises it to about 10x.
BUILD_PEAK_RATIO = 4


def test_dss_build_peak_is_bounded_by_its_columns(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    driver.clear_workload_caches()
    tracemalloc.start()
    try:
        built = driver.dss_workload(scale=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = sum(len(t.addrs) * t.addrs.itemsize
                  + len(t.kinds) * t.kinds.itemsize for t in built.traces)
    assert peak < BUILD_PEAK_RATIO * columns, (
        f"dss build peaked at {peak / 1e6:.2f} MB for "
        f"{columns / 1e6:.2f} MB of trace columns "
        f"({peak / columns:.1f}x > {BUILD_PEAK_RATIO}x)")
