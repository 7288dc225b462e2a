"""Workload driver: build per-regime trace bundles for the simulator.

The paper's configurations (Section 3):

- saturated OLTP: 64 clients submitting TPC-C transactions;
- saturated DSS: 16 concurrent clients running the four-query mix with
  random predicates;
- unsaturated: a single client, intra-query parallelism disabled.

Building traces is the expensive step (the engine actually executes every
query and transaction), so every bundle has one identity, its trace-store
key ``(builder, sorted params)``, and is memoized under it twice: in this
process's registry, and — when ``REPRO_TRACE_DIR`` is set — across
processes via :mod:`repro.workloads.tracestore`, which serves frozen trace
bytes instead of re-running the engine.  Omitted and explicit default
arguments name the same key, so they share one bundle.  A damaged store
entry is a counted miss, so the bundle is rebuilt, and
``REPRO_CACHE_BUDGET`` bounds the store root.
"""

from __future__ import annotations

from ..db.txn import validate_cc_mode
from ..simulator.trace import Workload
from . import tracestore
from .contention import SkewSpec, as_skew
from .tpcc import TpccDatabase
from .tpch import TpchDatabase

#: The paper's saturated client count per workload kind: the default of
#: every saturated bundle and of :class:`repro.core.parallel.RunSpec`.
SATURATED_CLIENTS = {"oltp": 64, "dss": 16}

#: Transactions per OLTP client trace (the cyclic steady-state window).
OLTP_TXNS_PER_CLIENT = 56
#: Transactions for the single unsaturated OLTP client.
OLTP_UNSAT_TXNS = 120

#: Chunks the DSS fact tables are split into.  Four clients share each
#: chunk (the paper's clients all scan the same relations; chunk sharing
#: is what makes DSS workloads benefit from shared caches — Section 5.3's
#: "significant sharing between cores").
DSS_SATURATED_CHUNKS = 4
#: The unsaturated client works a 1/16 slice (intra-query parallelism
#: disabled, Section 3): one connection's working range, which its query
#: windows revisit across rounds.
DSS_UNSAT_CHUNKS = 16


#: Bundles already materialized in this process, by trace-store key.  A
#: fork-started pool worker inherits these exact objects (columns shared
#: copy-on-write, and the simulator's warm-state memo entries are keyed by
#: their ids); a spawn- or forkserver-started worker inherits nothing, so
#: its pool initializer adopts the parent's entries for the sweep's
#: bundles (:func:`adopt_bundles`).
_BUILT: dict[tuple, Workload] = {}
_BUILT_CAP = 32


def clear_workload_caches() -> None:
    """Forget every in-process bundle."""
    _BUILT.clear()


def built_bundles(workloads) -> dict[tuple, Workload]:
    """This process's registry entries holding one of ``workloads``."""
    wanted = {id(w) for w in workloads}
    return {k: w for k, w in _BUILT.items() if id(w) in wanted}


def adopt_bundles(bundles: dict[tuple, Workload]) -> None:
    """Install another process's built bundles into this registry.

    The bundles arrive pickled; a trace's pickle is its physical columns
    and metadata, which is all the state it has.
    """
    _BUILT.update(bundles)


def _contention_tag(skew: SkewSpec, cc_mode: str) -> str:
    """Workload-name suffix for non-default contention knobs."""
    parts = []
    if skew.active:
        parts.append(skew.describe())
    if cc_mode != "2pl":
        parts.append(cc_mode)
    return "-".join(parts)


def _contention_params(params: dict, skew: SkewSpec, cc_mode: str) -> dict:
    """Mix contention knobs into a store key — only when non-default.

    Default builds must produce byte-for-byte the keys they always did,
    so existing trace-store entries (and CI cache restores) keep
    hitting; opted-in builds get a distinct key.
    """
    if skew.active or cc_mode != "2pl":
        params = dict(params)
        params["contention"] = (skew.key(), cc_mode)
    return params


def _stored(builder: str, params: dict, build) -> Workload:
    """The bundle keyed (builder name, sorted params): this process's
    registry first, then the cross-process trace store, and only then
    ``build()``.

    The engine-version salt is mixed in by the store itself.  With no
    ``REPRO_TRACE_DIR`` configured the store step is skipped.
    """
    key = (builder, tuple(sorted(params.items())))
    workload = _BUILT.get(key)
    if workload is not None:
        return workload
    store = tracestore.active_store()
    workload = None if store is None else store.get(key)
    if workload is None:
        workload = build()
        if store is not None:
            store.put(key, workload)
    if len(_BUILT) >= _BUILT_CAP:
        _BUILT.pop(next(iter(_BUILT)))
    _BUILT[key] = workload
    return workload


def oltp_workload(scale: float = 1.0, n_clients: int = SATURATED_CLIENTS["oltp"],
                  txns_per_client: int = OLTP_TXNS_PER_CLIENT,
                  seed: int = 42, skew: SkewSpec | None = None,
                  cc_mode: str = "2pl") -> Workload:
    """Saturated OLTP bundle: ``n_clients`` TPC-C client traces."""
    skew_spec = as_skew(skew)
    validate_cc_mode(cc_mode)
    tag = _contention_tag(skew_spec, cc_mode)

    def build() -> Workload:
        tpcc = TpccDatabase(scale=scale, seed=seed, skew=skew_spec,
                            cc_mode=cc_mode)
        traces = [
            tpcc.run_client(c, txns_per_client) for c in range(n_clients)
        ]
        metadata = {"scale": scale, "txns_per_client": txns_per_client}
        if tag:
            metadata["contention"] = tag
        return Workload(
            name=f"tpcc-sat-{n_clients}c" + (f"@{tag}" if tag else ""),
            traces=traces,
            kind="oltp",
            saturated=True,
            metadata=metadata,
        )

    return _stored("oltp_workload",
                   _contention_params(
                       {"scale": scale, "n_clients": n_clients,
                        "txns_per_client": txns_per_client, "seed": seed},
                       skew_spec, cc_mode),
                   build)


def oltp_unsaturated(scale: float = 1.0, seed: int = 42,
                     txns: int = OLTP_UNSAT_TXNS,
                     skew: SkewSpec | None = None,
                     cc_mode: str = "2pl") -> Workload:
    """Unsaturated OLTP bundle: one client, one transaction stream."""
    skew_spec = as_skew(skew)
    validate_cc_mode(cc_mode)
    tag = _contention_tag(skew_spec, cc_mode)

    def build() -> Workload:
        tpcc = TpccDatabase(scale=scale, seed=seed, skew=skew_spec,
                            cc_mode=cc_mode)
        return Workload(
            name="tpcc-unsat" + (f"@{tag}" if tag else ""),
            traces=[tpcc.run_client(0, txns)],
            kind="oltp",
            saturated=False,
            metadata={"scale": scale},
        )

    return _stored("oltp_unsaturated",
                   _contention_params(
                       {"scale": scale, "seed": seed, "txns": txns},
                       skew_spec, cc_mode),
                   build)


def dss_workload(scale: float = 1.0, n_clients: int = SATURATED_CLIENTS["dss"],
                 seed: int = 7) -> Workload:
    """Saturated DSS bundle: ``n_clients`` four-query client traces.

    Clients partition the fact tables into ``DSS_SATURATED_CHUNKS`` chunks;
    with more clients than chunks, chunk ownership wraps (several clients
    re-scan the same partition — the over-saturated regime of Fig. 2).
    """
    def build() -> Workload:
        tpch = TpchDatabase(scale=scale, seed=seed)
        traces = [
            tpch.run_client(c, DSS_SATURATED_CHUNKS, repeats=2)
            for c in range(n_clients)
        ]
        return Workload(
            name=f"tpch-sat-{n_clients}c",
            traces=traces,
            kind="dss",
            saturated=True,
            metadata={"scale": scale},
        )

    return _stored("dss_workload",
                   {"scale": scale, "n_clients": n_clients, "seed": seed},
                   build)


def dss_unsaturated(scale: float = 1.0, seed: int = 7) -> Workload:
    """Unsaturated DSS bundle: one client running the four-query mix."""
    def build() -> Workload:
        tpch = TpchDatabase(scale=scale, seed=seed)
        return Workload(
            name="tpch-unsat",
            traces=[tpch.run_client(0, DSS_UNSAT_CHUNKS, repeats=2)],
            kind="dss",
            saturated=False,
            metadata={"scale": scale},
        )

    return _stored("dss_unsaturated", {"scale": scale, "seed": seed}, build)


def dss_parallel_query(scale: float = 1.0, n_partitions: int = 1,
                       seed: int = 7,
                       rows_nominal: int = 60_000) -> Workload:
    """An intra-query parallel DSS plan (Section 6.1's opportunity).

    One Q6-style scan-aggregate over ``rows_nominal`` (nominal) lineitem
    rows, split into ``n_partitions`` independent sub-queries; each
    partition becomes its own client trace so a machine runs them on
    separate hardware contexts.  Response mode then measures the plan's
    completion (the slowest partition).
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")

    def build() -> Workload:
        from ..db.exec import AggSpec, Filter, SeqScan, StreamAggregate, fused
        from .tpch import DSS_BRANCH_MPKI, DSS_ILP, DSS_ILP_INORDER

        tpch = TpchDatabase(scale=scale, seed=seed)
        rows = min(tpch.n_lineitem, max(n_partitions,
                                        round(rows_nominal * scale)))
        per = rows // n_partitions
        pred = lambda r: r[5] >= 0.05 and r[3] < 24

        def update(st, r):
            st[0] += r[4] * r[5]

        traces = []
        for p in range(n_partitions):
            lo = p * per
            hi = rows if p == n_partitions - 1 else lo + per
            sess = tpch.db.session(
                f"q6-part{p}", ilp=DSS_ILP, branch_mpki=DSS_BRANCH_MPKI,
                ilp_inorder=DSS_ILP_INORDER,
            )
            aggs = [AggSpec("sum", lambda r: r[4] * r[5], "revenue")]
            if fused.usable(sess.ctx, tpch.lineitem):
                fused.scan_filter_stream_agg(
                    sess.ctx, tpch.lineitem, lo, hi, pred, 3, aggs, update,
                )
            else:
                scan = SeqScan(sess.ctx, tpch.lineitem, start=lo, stop=hi)
                filt = Filter(sess.ctx, scan, pred, n_terms=3)
                agg = StreamAggregate(sess.ctx, filt, aggs)
                agg.execute()
            traces.append(sess.finish())
        return Workload(
            name=f"dss-parallel-{n_partitions}p",
            traces=traces,
            kind="dss",
            saturated=False,
            metadata={"scale": scale, "partitions": n_partitions},
        )

    return _stored("dss_parallel_query",
                   {"scale": scale, "n_partitions": n_partitions,
                    "seed": seed, "rows_nominal": rows_nominal}, build)


def workload_for(kind: str, regime: str, scale: float,
                 n_clients: int | None = None, skew: SkewSpec | None = None,
                 cc_mode: str = "2pl") -> Workload:
    """Dispatch: (kind, regime) -> the matching bundle.

    Args:
        kind: ``"oltp"`` or ``"dss"``.
        regime: ``"saturated"`` or ``"unsaturated"``.
        scale: Study-wide scale factor.
        n_clients: Override the paper's client count (saturated only).
        skew: Optional contention knobs (OLTP only).
        cc_mode: Concurrency-control mode (OLTP only; default ``"2pl"``).
    """
    if kind not in SATURATED_CLIENTS:
        raise ValueError(f"unknown workload kind {kind!r}")
    if regime not in ("saturated", "unsaturated"):
        raise ValueError(f"unknown regime {regime!r}")
    skew_spec = as_skew(skew)
    validate_cc_mode(cc_mode)
    if (skew_spec.active or cc_mode != "2pl") and kind != "oltp":
        raise ValueError(
            "skew/cc_mode apply to kind='oltp' only (DSS has no "
            "transaction contention model)")
    clients = SATURATED_CLIENTS[kind] if n_clients is None else n_clients
    if kind == "oltp":
        if regime == "saturated":
            return oltp_workload(scale=scale, n_clients=clients,
                                 skew=skew_spec, cc_mode=cc_mode)
        return oltp_unsaturated(scale=scale, skew=skew_spec, cc_mode=cc_mode)
    if regime == "saturated":
        return dss_workload(scale=scale, n_clients=clients)
    return dss_unsaturated(scale=scale)
