"""Oracle for the fused plan drains: fused == generic operators, bit for bit.

``repro.db.exec.fused`` drains three DSS plan shapes in flat loops that
append precomputed packed meta words straight onto the trace builder's
columns.
Its contract is that each drain emits the event stream the generic
Volcano operators emit — same addresses, icounts, flags and region ids,
in the same order — and the same result rows.

This suite runs every ``fused.usable`` call site twice: once as shipped
(the fused drain), once with ``fused.usable`` patched to return False (the
generic operators).  The sites are the four TPC-H queries in
``TpchDatabase`` (``q1``, ``q6``, ``q13``, ``q16``),
``driver.dss_parallel_query`` and ``micro.micro_ss``.  Each comparison
asserts:

- the fused run really took the fused path at every site visit, and the
  generic run never did;
- identical ``addrs`` columns and decoded events for every trace;
- identical result rows, where the site returns them (the TPC-H queries).

Workload caches are cleared and the trace store is switched off first,
so both runs build from scratch.
"""

from __future__ import annotations

import random

import pytest

from repro.db.exec import fused
from repro.workloads import driver
from repro.workloads.micro import micro_ss
from repro.workloads.tpch import (
    DSS_BRANCH_MPKI,
    DSS_ILP,
    DSS_ILP_INORDER,
    QUERIES,
    TpchDatabase,
)
from repro.workloads.tracestore import ENV_TRACE_DIR
from tests.trace_events import trace_events

SCALE = 0.01

#: Executions per query: each draws a new predicate and scan window, and
#: later ones run over a buffer pool the earlier ones left warm.
REPEATS = 4


@pytest.fixture(autouse=True)
def _fresh_builds(monkeypatch):
    """No trace-store hits and no memoized bundles, before and after."""
    monkeypatch.delenv(ENV_TRACE_DIR, raising=False)
    driver.clear_workload_caches()
    yield
    driver.clear_workload_caches()


def _both_ways(build, monkeypatch):
    """``build()`` with the fused drains, then with the generic operators.

    Returns ``(fused_out, generic_out)``.  Fails unless every site visit
    of the first run was fused and none of the second was.
    """
    real = fused.usable
    outs, visits = [], []
    for on in (True, False):
        seen = []

        def usable(ctx, *heaps, _on=on, _seen=seen):
            ok = _on and real(ctx, *heaps)
            _seen.append(ok)
            return ok

        monkeypatch.setattr(fused, "usable", usable)
        driver.clear_workload_caches()
        outs.append(build())
        visits.append(seen)
    assert visits[0] and all(visits[0]), "the fused path did not run"
    assert visits[1] and not any(visits[1])
    return outs


def _assert_same_columns(fused_traces, generic_traces):
    assert len(fused_traces) == len(generic_traces)
    for ft, gt in zip(fused_traces, generic_traces):
        assert len(ft) > 0
        assert ft.addrs == gt.addrs, f"{ft.name}: addrs column diverged"
        assert trace_events(ft) == trace_events(gt), \
            f"{ft.name}: events diverged"


@pytest.mark.parametrize("query", QUERIES)
def test_tpch_query_fused_matches_generic(query, monkeypatch):
    def build():
        tpch = TpchDatabase(scale=SCALE)
        ranges = {"q1": tpch.n_lineitem, "q6": tpch.n_lineitem,
                  "q13": tpch.n_orders, "q16": tpch.n_partsupp}
        sess = tpch.db.session(f"oracle-{query}", ilp=DSS_ILP,
                               branch_mpki=DSS_BRANCH_MPKI,
                               ilp_inorder=DSS_ILP_INORDER)
        rng = random.Random(11)
        run = getattr(tpch, query)
        rows = [run(sess, rng, 0, ranges[query]) for _ in range(REPEATS)]
        return rows, sess.finish()

    (f_rows, f_trace), (g_rows, g_trace) = _both_ways(build, monkeypatch)
    assert any(f_rows), "every execution returned no rows"
    assert f_rows == g_rows
    _assert_same_columns([f_trace], [g_trace])


def test_dss_parallel_query_fused_matches_generic(monkeypatch):
    f_wl, g_wl = _both_ways(
        lambda: driver.dss_parallel_query(SCALE, n_partitions=3),
        monkeypatch)
    _assert_same_columns(f_wl.traces, g_wl.traces)


def test_micro_ss_fused_matches_generic(monkeypatch):
    f_wl, g_wl = _both_ways(lambda: micro_ss(n_rows=4_000), monkeypatch)
    _assert_same_columns(f_wl.traces, g_wl.traces)
