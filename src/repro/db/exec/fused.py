"""Fused plan drains: whole-pipeline loops emitting packed trace events.

The Volcano operators in this package are the *specification* of a query's
event stream: one generator resumption and several tracer calls per tuple.
That per-tuple interpretation dominates trace-build time.  The functions
here drain the three DSS plan shapes (scan→filter→aggregate, with a
streaming or hashed tail, and scan→filter⋈scan→aggregate) in single flat
loops that append precomputed packed meta words straight onto the trace
builder's columns via :meth:`~repro.db.tracer.MemoryTracer.emitters`.

Equivalence contract (enforced by ``tests/test_fused_oracle.py``, which
runs every call site against the generic operators): for the supported plan
shapes the fused drain produces the *bit-identical* event stream — the
same addresses, icounts, flags and region ids in the same order — and the
same float-identical result rows as the generic operators.  Every event
constant below is derived from the operator sources:

- SeqScan (NSM): per page one ``BufferPool.fetch`` (called generically so
  directory/install traffic stays exact), one region enter, then per row
  ``compute(SCAN_NEXT)`` + one streaming reference (dependent for five of
  six rids) + one extra line reference for records wider than 64 B.
- Filter: one enter + ``compute(PREDICATE * n_terms)`` per input row.
- Stream/Hash aggregate and HashJoin: the enters, computes and scratch
  arena references documented in ``aggregate.py`` / ``join.py``.

Because each event's icount is ``pending + cost + 1`` and each region id
is whatever module *last* entered, a row's scan event takes one of a few
precomputed "head" words selected by what the previous row did (page
start / predicate fail / pass).  Code regions must also *register* in the
same order the generic operators first enter them — hence the lazy
``region_bits`` resolution at exactly those points.
"""

from __future__ import annotations

from itertools import chain

from .. import costs
from ..heap import HeapFile
from ..page import PageLayout
from .base import QueryContext

#: Scan-event head icount: SCAN_NEXT + the access instruction.
_SCAN_IC = costs.SCAN_NEXT + 1

#: Bytes per aggregate group entry / join bucket / join entry (mirrors
#: aggregate.py and join.py).
_GROUP_BYTES = 64
_BUCKET_BYTES = 16
_ENTRY_BYTES = 32

#: ``stable_hash`` inlined: mask, tuple-combine seed and multiplier.  The
#: hot loops hash non-negative int (and int-tuple) keys without the
#: per-key function call; the arithmetic is identical to
#: :func:`repro.db.util.stable_hash`.
_HMASK = 0x7FFF_FFFF_FFFF_FFFF
_HSEED = 0x345678
_HMULT = 1000003


def _tuple_hash(key):
    """``stable_hash`` for a tuple of ints, inlined (no recursion)."""
    h = _HSEED
    for e in key:
        h = ((h * _HMULT) ^ (e & _HMASK)) & _HMASK
    return h


#: (phase, n) -> tuple of per-row dependent-flag bits.  Five of six scan
#: references are dependent (rid % 6 != 0); the mask repeats with the
#: page's rid phase, so the few hundred distinct (phase, length) spans
#: are built once.
_DEP_CACHE: dict = {}


def _dep_mask(phase: int, n: int) -> tuple:
    key = (phase, n)
    mask = _DEP_CACHE.get(key)
    if mask is None:
        mask = _DEP_CACHE[key] = tuple(
            0 if (phase + k) % 6 == 0 else 2 for k in range(n))
    return mask


def usable(ctx: QueryContext, *heaps: HeapFile) -> bool:
    """Whether the fused drains can replicate this plan exactly.

    Requires an event-recording tracer (NullTracer runs take the generic
    path — nothing to fuse), NSM layout, and records spanning at most two
    cache lines (one optional extra reference), which covers every table
    the DSS workloads scan.
    """
    tracer = ctx.tracer
    if not getattr(tracer, "enabled", False) or not hasattr(tracer, "emitters"):
        return False
    for heap in heaps:
        if heap.format.layout is not PageLayout.NSM:
            return False
        if heap.schema.row_width > 128:
            return False
    return True


# --------------------------------------------------------------------- #
# Shape A: scan -> filter -> streaming aggregate (Q6, uSS, parallel Q6)  #
# --------------------------------------------------------------------- #

def scan_filter_stream_agg(ctx, heap, start, stop, pred, n_terms, aggs,
                           update):
    """Drain ``StreamAggregate(Filter(SeqScan(heap, start, stop)))``.

    Args:
        pred: The filter predicate (the same callable the generic plan
            would use).
        n_terms: Filter term count (instruction-cost weight).
        aggs: The ``AggSpec`` list of the streaming aggregate.
        update: ``(states, row) -> None`` mutating the accumulator list
            with float-identical operations to the specs' ``update``.

    Returns the aggregate's single result row in a list, exactly as
    ``agg.execute()`` would.
    """
    tracer = ctx.tracer
    pool = ctx.pool
    mcol, acol = tracer.columns()
    m_extend = mcol.extend
    a_extend = acol.extend
    sync = tracer.sync
    region_bits = tracer.region_bits
    capacity = heap.format.capacity
    page_rows = heap.page_rows
    addr_block = heap.scan_addr_block
    wide = heap.schema.row_width > 64
    fcost = costs.PREDICATE * max(1, n_terms)
    ucost = costs.AGG_UPDATE * len(aggs)
    states = [a.init_state() for a in aggs]

    stop = min(stop, heap.n_rows)
    rid = start
    pend = tracer._pending
    bits = tracer._current_bits
    started = False
    head = 0
    h_scan = x_scan = 0
    rbf = rba = None
    h_fail = x_fail = h_pass = x_pass = 0
    while rid < stop:
        if started:
            pend = (head >> 24) - _SCAN_IC
            bits = head & 0xFFFF00
        sync(pend, bits)
        page_no = rid // capacity
        pool.fetch(heap, page_no, tracer)
        if not started:
            started = True
            rbs = region_bits("exec.seqscan")
            h_scan = (_SCAN_IC << 24) | rbs | 0x10
            x_scan = (1 << 24) | rbs | 0x10
        page0 = page_no * capacity
        page_end = min(stop, page0 + capacity)
        rows = page_rows(page_no)
        ab = addr_block(page_no)
        i = rid - page0
        end = page_end - page0
        # A pure scan's address stream is deterministic: splice the whole
        # page block into the address column, then build the page's meta
        # words from the predicate outcomes in bulk.  Each row's head word
        # is selected by what the *previous* row did (2 = page start).
        if i == 0 and end == len(rows):
            a_extend(ab)
            span = rows
        elif wide:
            a_extend(ab[2 * i:2 * end])
            span = rows[i:end]
        else:
            a_extend(ab[i:end])
            span = rows[i:end]
        o = [1 if pred(r) else 0 for r in span]
        if rbf is None:
            rbf = region_bits("exec.filter")
            h_fail = ((_SCAN_IC + fcost) << 24) | rbf | 0x10
            x_fail = (1 << 24) | rbf | 0x10
        passed = 1 in o
        if passed and rba is None:
            rba = region_bits("exec.aggregate")
            h_pass = ((_SCAN_IC + fcost + ucost) << 24) | rba | 0x10
            x_pass = (1 << 24) | rba | 0x10
        sel = (h_fail, h_pass, h_scan)
        dm = _dep_mask(rid % 6, end - i)
        prevs = [2]
        prevs.extend(o[:-1])
        if wide:
            xsel = (x_fail, x_pass, x_scan)
            m_extend(chain.from_iterable(
                [(sel[p] | d, xsel[p]) for p, d in zip(prevs, dm)]))
        else:
            m_extend([sel[p] | d for p, d in zip(prevs, dm)])
        if passed:
            for r, p in zip(span, o):
                if p:
                    update(states, r)
        head = sel[o[-1]]
        rid = page_end
    if started:
        pend = (head >> 24) - _SCAN_IC
        bits = head & 0xFFFF00
    sync(pend, bits)
    tracer.enter("exec.aggregate")
    tracer.compute(costs.EMIT_TUPLE)
    return [tuple(a.final(s) for a, s in zip(aggs, states))]


# --------------------------------------------------------------------- #
# Shape B: scan -> filter -> hash aggregate (Q1)                         #
# --------------------------------------------------------------------- #

def scan_filter_hash_agg(ctx, heap, start, stop, pred, n_terms, key_cols,
                         aggs, expected_groups, update):
    """Drain ``HashAggregate(Filter(SeqScan(heap, start, stop)))``.

    ``key_cols`` names the group-key columns (the generic plan's
    ``lambda r: (r[i], r[j])``); ``update`` mutates a group's accumulator
    list exactly as the specs would.
    """
    tracer = ctx.tracer
    pool = ctx.pool
    mcol, acol = tracer.columns()
    m_extend = mcol.extend
    a_extend = acol.extend
    sync = tracer.sync
    region_bits = tracer.region_bits
    # Arena sizing happens before the child is pulled, as in
    # HashAggregate.rows(); the span follows the (possibly larger,
    # cached) region actually returned.
    arena = ctx.scratch("aggregate", max(1, expected_groups) * _GROUP_BYTES)
    span = max(1, arena.size // _GROUP_BYTES)
    abase = arena.base
    capacity = heap.format.capacity
    page_rows = heap.page_rows
    addr_block = heap.scan_addr_block
    wide = heap.schema.row_width > 64
    fcost = costs.PREDICATE * max(1, n_terms)
    hcost = costs.HASH_KEY + costs.AGG_UPDATE * len(aggs)
    groups: dict = {}
    groups_get = groups.get
    order: list = []
    kc0, kc1 = key_cols if len(key_cols) == 2 else (None, None)
    # Constant-fold the first tuple-combine step of the two-column case.
    h0 = _HSEED * _HMULT

    stop = min(stop, heap.n_rows)
    rid = start
    pend = tracer._pending
    bits = tracer._current_bits
    started = False
    head = 0
    h_scan = x_scan = 0
    rbf = rba = None
    h_fail = x_fail = h_pass = x_pass = ev_pass = 0
    while rid < stop:
        if started:
            pend = (head >> 24) - _SCAN_IC
            bits = head & 0xFFFF00
        sync(pend, bits)
        page_no = rid // capacity
        pool.fetch(heap, page_no, tracer)
        if not started:
            started = True
            rbs = region_bits("exec.seqscan")
            h_scan = (_SCAN_IC << 24) | rbs | 0x10
            x_scan = (1 << 24) | rbs | 0x10
        page0 = page_no * capacity
        page_end = min(stop, page0 + capacity)
        rows = page_rows(page_no)
        ab = addr_block(page_no)
        i = rid - page0
        end = page_end - page0
        if i == 0 and end == len(rows):
            srows = rows
        else:
            srows = rows[i:end]
            ab = ab[2 * i:2 * end] if wide else ab[i:end]
        o = [1 if pred(r) else 0 for r in srows]
        if rbf is None:
            rbf = region_bits("exec.filter")
            h_fail = ((_SCAN_IC + fcost) << 24) | rbf | 0x10
            x_fail = (1 << 24) | rbf | 0x10
        passed = 1 in o
        if passed and rba is None:
            rba = region_bits("exec.aggregate")
            # The group-table write flushes all pending compute, so the
            # next scan head restarts at the base icount.
            ev_pass = ((fcost + hcost + 1) << 24) | rba | 0x3
            h_pass = (_SCAN_IC << 24) | rba | 0x10
            x_pass = (1 << 24) | rba | 0x10
        sel = (h_fail, h_pass, h_scan)
        dm = _dep_mask(rid % 6, end - i)
        prevs = [2]
        prevs.extend(o[:-1])
        if not passed:
            # Fail-only page: the address stream is the pure scan block.
            if wide:
                xsel = (x_fail, x_pass, x_scan)
                m_extend(chain.from_iterable(
                    [(sel[p] | d, xsel[p]) for p, d in zip(prevs, dm)]))
            else:
                m_extend([sel[p] | d for p, d in zip(prevs, dm)])
            a_extend(ab)
        else:
            # Group-side pass first: per passing row, the group-table
            # address plus the accumulator update; the emission pass
            # then splices those addresses between the scan references.
            gaddrs = []
            gapp = gaddrs.append
            for r, c in zip(srows, o):
                if c:
                    if kc0 is not None:
                        e0 = r[kc0]
                        e1 = r[kc1]
                        key = (e0, e1)
                        h = ((((h0 ^ (e0 & _HMASK)) & _HMASK) * _HMULT)
                             ^ (e1 & _HMASK)) & _HMASK
                    else:
                        key = tuple(r[kc] for kc in key_cols)
                        h = _tuple_hash(key)
                    gapp(abase + (h % span) * _GROUP_BYTES)
                    state = groups_get(key)
                    if state is None:
                        groups[key] = state = [a.init_state() for a in aggs]
                        order.append(key)
                    update(state, r)
            git = iter(gaddrs).__next__
            if wide:
                xsel = (x_fail, x_pass, x_scan)
                m_extend(chain.from_iterable(
                    [(sel[p] | d, xsel[p], ev_pass) if c
                     else (sel[p] | d, xsel[p])
                     for p, d, c in zip(prevs, dm, o)]))
                ait = iter(ab).__next__
                a_extend(chain.from_iterable(
                    [(ait(), ait(), git()) if c else (ait(), ait())
                     for c in o]))
            else:
                m_extend(chain.from_iterable(
                    [(sel[p] | d, ev_pass) if c else (sel[p] | d,)
                     for p, d, c in zip(prevs, dm, o)]))
                a_extend(chain.from_iterable(
                    [(a0, git()) if c else (a0,)
                     for a0, c in zip(ab, o)]))
        head = sel[o[-1]]
        rid = page_end
    if started:
        pend = (head >> 24) - _SCAN_IC
        bits = head & 0xFFFF00
    sync(pend, bits)
    out = []
    enter = tracer.enter
    compute = tracer.compute
    emit = costs.EMIT_TUPLE
    for key in order:
        enter("exec.aggregate")
        compute(emit)
        finals = tuple(a.final(s) for a, s in zip(aggs, groups[key]))
        out.append(key + finals if isinstance(key, tuple)
                   else (key,) + finals)
    return out


# --------------------------------------------------------------------- #
# Shape C: filtered scan |><| scan -> hash aggregate (Q13, Q16)          #
# --------------------------------------------------------------------- #

def scan_filter_join_agg(ctx, build_heap, b_start, b_stop, build_pred,
                         b_terms, build_col, probe_heap, p_start, p_stop,
                         probe_col, agg_cols, aggs, expected_groups, update,
                         dist=None):
    """Drain ``HashAggregate(HashJoin(Filter(SeqScan), SeqScan))``.

    ``build_col``/``probe_col`` name the non-negative-int join-key
    columns and ``agg_cols`` the group-key column(s) of the *joined*
    row (an int or a tuple of ints), so key hashing inlines to masked
    arithmetic instead of per-row ``stable_hash`` calls.  With ``dist =
    (col, aggs, expected_groups, update)`` a second hash aggregate
    consumes the first one's output — Q13's orders-per-customer
    distribution — with the two generators' interleaved
    finalize/update events reproduced exactly.
    """
    tracer = ctx.tracer
    pool = ctx.pool
    ma, aa = tracer.emitters()
    mcol, acol = tracer.columns()
    m_extend = mcol.extend
    a_extend = acol.extend
    sync = tracer.sync
    region_bits = tracer.region_bits
    # Scratch allocation order mirrors generator start order: the
    # outermost rows() body runs (and sizes its arena) first, before the
    # inner aggregate's possibly-larger request reallocates the shared
    # "aggregate" arena.
    if dist is not None:
        dcol, dist_aggs, dist_expected, dupdate = dist
        darena = ctx.scratch("aggregate",
                             max(1, dist_expected) * _GROUP_BYTES)
        dspan = max(1, darena.size // _GROUP_BYTES)
        dbase = darena.base
    arena = ctx.scratch("aggregate", max(1, expected_groups) * _GROUP_BYTES)
    span = max(1, arena.size // _GROUP_BYTES)
    abase = arena.base

    fcost = costs.PREDICATE * max(1, b_terms)
    table: dict = {}
    table_get = table.get
    build_rows: list = []
    bkeys: list = []
    ac = agg_cols if isinstance(agg_cols, int) else None

    # ---- build side: fused scan+filter drain ------------------------- #
    capacity = build_heap.format.capacity
    page_rows = build_heap.page_rows
    addr_block = build_heap.scan_addr_block
    wide = build_heap.schema.row_width > 64
    b_stop = min(b_stop, build_heap.n_rows)
    rid = b_start
    pend = tracer._pending
    bits = tracer._current_bits
    started = False
    head = extra = 0
    h_scan = x_scan = 0
    rbf = rbj = rba = None
    h_fail = x_fail = h_pass = x_pass = 0
    while rid < b_stop:
        if started:
            pend = (head >> 24) - _SCAN_IC
            bits = head & 0xFFFF00
        sync(pend, bits)
        page_no = rid // capacity
        pool.fetch(build_heap, page_no, tracer)
        if not started:
            started = True
            rbs = region_bits("exec.seqscan")
            h_scan = (_SCAN_IC << 24) | rbs | 0x10
            x_scan = (1 << 24) | rbs | 0x10
        page0 = page_no * capacity
        page_end = min(b_stop, page0 + capacity)
        rows = page_rows(page_no)
        ab = addr_block(page_no)
        i = rid - page0
        end = page_end - page0
        # Build consumption emits no interleaved references (no compute
        # until the sized table's traffic below), so both columns build
        # in bulk, exactly as in shape A; the pass head differs from the
        # fail head only in region.
        if i == 0 and end == len(rows):
            a_extend(ab)
            srows = rows
        elif wide:
            a_extend(ab[2 * i:2 * end])
            srows = rows[i:end]
        else:
            a_extend(ab[i:end])
            srows = rows[i:end]
        o = [1 if build_pred(r) else 0 for r in srows]
        if rbf is None:
            rbf = region_bits("exec.filter")
            h_fail = ((_SCAN_IC + fcost) << 24) | rbf | 0x10
            x_fail = (1 << 24) | rbf | 0x10
        passed = 1 in o
        if passed and rbj is None:
            rbj = region_bits("exec.hashjoin")
            h_pass = ((_SCAN_IC + fcost) << 24) | rbj | 0x10
            x_pass = (1 << 24) | rbj | 0x10
        sel = (h_fail, h_pass, h_scan)
        dm = _dep_mask(rid % 6, end - i)
        prevs = [2]
        prevs.extend(o[:-1])
        if wide:
            xsel = (x_fail, x_pass, x_scan)
            m_extend(chain.from_iterable(
                [(sel[p] | d, xsel[p]) for p, d in zip(prevs, dm)]))
        else:
            m_extend([sel[p] | d for p, d in zip(prevs, dm)])
        if passed:
            for r, p in zip(srows, o):
                if p:
                    key = r[build_col]
                    lst = table_get(key)
                    if lst is None:
                        table[key] = lst = []
                    lst.append((len(build_rows), r))
                    build_rows.append(r)
                    bkeys.append(key & _HMASK)
        head = sel[o[-1]]
        rid = page_end
    if started:
        pend = (head >> 24) - _SCAN_IC
        bits = head & 0xFFFF00

    # ---- hash-table sizing + build traffic --------------------------- #
    n_build = len(build_rows)
    n_buckets = max(64, 1 << max(6, n_build.bit_length()))
    jarena = ctx.scratch(
        "hashjoin",
        n_buckets * _BUCKET_BYTES + max(1, n_build) * _ENTRY_BYTES,
    )
    jbase = jarena.base
    ebase = jbase + n_buckets * _BUCKET_BYTES
    sync(pend, bits)
    tracer.enter("exec.hashjoin")
    rbj = region_bits("exec.hashjoin")
    insert_ic = costs.HASH_KEY + costs.HASH_INSERT + 1
    if n_build:
        # Strictly alternating (bucket-write, entry-write) pairs whose
        # meta words are constant after the first: build both columns
        # wholesale.
        mblk = [(insert_ic << 24) | rbj | 0x3, (1 << 24) | rbj | 0x1] \
            * n_build
        mblk[0] = ((pend + insert_ic) << 24) | rbj | 0x3
        m_extend(mblk)
        a_extend(chain.from_iterable(zip(
            [jbase + (k % n_buckets) * _BUCKET_BYTES for k in bkeys],
            range(ebase, ebase + n_build * _ENTRY_BYTES, _ENTRY_BYTES))))
        pend = 0
    bits = rbj

    # ---- probe side: fused scan+probe+aggregate drain ---------------- #
    probe_ic = costs.HASH_KEY + 1
    match_ic = costs.HASH_CHAIN_STEP + costs.EMIT_TUPLE + 1
    hcost = costs.HASH_KEY + costs.AGG_UPDATE * len(aggs)
    groups: dict = {}
    groups_get = groups.get
    order: list = []
    # When every aggregate-key column indexes the *build* half of the
    # joined row, the group key (and its arena address) is a function of
    # the build entry alone: compute both once per entry instead of once
    # per probe match.  Bucket entries become (entry_addr, group_addr,
    # akey, build_row).
    b_arity = len(build_rows[0]) if build_rows else 0
    pre = (ac < b_arity if ac is not None
           else all(c < b_arity for c in agg_cols)) if build_rows else False
    if pre:
        for lst in table.values():
            for idx, (ei, m) in enumerate(lst):
                if ac is not None:
                    akey = m[ac]
                    h = akey & _HMASK
                else:
                    akey = tuple(m[c] for c in agg_cols)
                    h = _tuple_hash(akey)
                lst[idx] = (ebase + ei * _ENTRY_BYTES,
                            abase + (h % span) * _GROUP_BYTES, akey, m)
    capacity = probe_heap.format.capacity
    page_rows = probe_heap.page_rows
    addr_block = probe_heap.scan_addr_block
    wide = probe_heap.schema.row_width > 64
    p_stop = min(p_stop, probe_heap.n_rows)
    rid = p_start
    started = False
    h_scan = x_scan = h_join = x_join = h_agg = x_agg = ev_probe = 0
    ev_agg = ev_match_a = 0
    ev_match_j = (match_ic << 24) | rbj | 0x2
    pc = probe_col
    while rid < p_stop:
        sync(pend, bits)
        page_no = rid // capacity
        pool.fetch(probe_heap, page_no, tracer)
        if not started:
            started = True
            rbs = region_bits("exec.seqscan")
            h_scan = (_SCAN_IC << 24) | rbs | 0x10
            x_scan = (1 << 24) | rbs | 0x10
            ev_probe = (probe_ic << 24) | rbj | 0x2
            h_join = (_SCAN_IC << 24) | rbj | 0x10
            x_join = (1 << 24) | rbj | 0x10
        page0 = page_no * capacity
        page_end = min(p_stop, page0 + capacity)
        rows = page_rows(page_no)
        ab = addr_block(page_no)
        i = rid - page0
        end = page_end - page0
        if i != 0 or end != len(rows):
            rows = rows[i:end]
            ab = ab[2 * i:2 * end] if wide else ab[i:end]
        keys = [r[pc] for r in rows]
        hits = list(map(table_get, keys))
        o = [0 if lst is None else 1 for lst in hits]
        matched = 1 in o
        if matched and rba is None:
            rba = region_bits("exec.aggregate")
            ev_agg = ((hcost + 1) << 24) | rba | 0x3
            ev_match_a = (match_ic << 24) | rba | 0x2
            h_agg = (_SCAN_IC << 24) | rba | 0x10
            x_agg = (1 << 24) | rba | 0x10
        # Join/aggregate pass: per matching row, the (match, group-write)
        # event tail and the accumulator update.  A multi-row bucket's
        # second match is emitted after the aggregate entered, so the
        # match word switches region after the first pair.
        mtails: list = []
        atails: list = []
        if matched:
            mt_app = mtails.append
            at_app = atails.append
            if pre:
                pair_j = (ev_match_j, ev_agg)
                pair_a = (ev_match_a, ev_agg)
                for row, lst in zip(rows, hits):
                    if lst is None:
                        continue
                    if len(lst) == 1:
                        ea, ga, akey, m = lst[0]
                        mt_app(pair_j)
                        at_app((ea, ga))
                        st = groups_get(akey)
                        if st is None:
                            groups[akey] = st = \
                                [a.init_state() for a in aggs]
                            order.append(akey)
                        update(st, m + row)
                        continue
                    mt: list = []
                    at: list = []
                    pair = pair_j
                    for ea, ga, akey, m in lst:
                        mt += pair
                        at += (ea, ga)
                        st = groups_get(akey)
                        if st is None:
                            groups[akey] = st = \
                                [a.init_state() for a in aggs]
                            order.append(akey)
                        update(st, m + row)
                        pair = pair_a
                    mt_app(mt)
                    at_app(at)
            else:
                for row, lst in zip(rows, hits):
                    if lst is None:
                        continue
                    mt = []
                    at = []
                    ev_m = ev_match_j
                    for ei, m in lst:
                        orow = m + row
                        if ac is not None:
                            akey = orow[ac]
                            h = akey & _HMASK
                        else:
                            akey = tuple(orow[c] for c in agg_cols)
                            h = _tuple_hash(akey)
                        mt += (ev_m, ev_agg)
                        at += (ebase + ei * _ENTRY_BYTES,
                               abase + (h % span) * _GROUP_BYTES)
                        st = groups_get(akey)
                        if st is None:
                            groups[akey] = st = \
                                [a.init_state() for a in aggs]
                            order.append(akey)
                        update(st, orow)
                        ev_m = ev_match_a
                    mt_app(mt)
                    at_app(at)
        sel = (h_join, h_agg, h_scan)
        dm = _dep_mask(rid % 6, end - i)
        prevs = [2]
        prevs.extend(o[:-1])
        baddrs = [jbase + ((k & _HMASK) % n_buckets) * _BUCKET_BYTES
                  for k in keys]
        tit = iter(mtails).__next__
        git = iter(atails).__next__
        if wide:
            xsel = (x_join, x_agg, x_scan)
            m_extend(chain.from_iterable(
                [(sel[p] | d, xsel[p], ev_probe, *tit()) if c
                 else (sel[p] | d, xsel[p], ev_probe)
                 for p, d, c in zip(prevs, dm, o)]))
            ait = iter(ab).__next__
            a_extend(chain.from_iterable(
                [(ait(), ait(), ba, *git()) if c else (ait(), ait(), ba)
                 for ba, c in zip(baddrs, o)]))
        else:
            m_extend(chain.from_iterable(
                [(sel[p] | d, ev_probe, *tit()) if c
                 else (sel[p] | d, ev_probe)
                 for p, d, c in zip(prevs, dm, o)]))
            a_extend(chain.from_iterable(
                [(a0, ba, *git()) if c else (a0, ba)
                 for a0, ba, c in zip(ab, baddrs, o)]))
        pend = 0
        bits = sel[o[-1]] & 0xFFFF00
        rid = page_end
    sync(pend, bits)

    # ---- finalize ----------------------------------------------------- #
    out = []
    enter = tracer.enter
    compute = tracer.compute
    emit = costs.EMIT_TUPLE
    if dist is None:
        for key in order:
            enter("exec.aggregate")
            compute(emit)
            finals = tuple(a.final(s) for a, s in zip(aggs, groups[key]))
            out.append(key + finals if isinstance(key, tuple)
                       else (key,) + finals)
        return out
    # The inner aggregate's finalize interleaves with the outer (dist)
    # aggregate's per-row update: each yielded row costs one outer
    # group-table write carrying EMIT_TUPLE + the outer's update compute.
    dgroups: dict = {}
    dorder: list = []
    dist_ic = (costs.EMIT_TUPLE + costs.HASH_KEY
               + costs.AGG_UPDATE * len(dist_aggs) + 1)
    if order:
        ev_dist = (dist_ic << 24) | rba | 0x3
        for key in order:
            finals = tuple(a.final(s) for a, s in zip(aggs, groups[key]))
            row = key + finals if isinstance(key, tuple) \
                else (key,) + finals
            k2 = row[dcol]
            ma(ev_dist)
            aa(dbase + ((k2 & _HMASK) % dspan) * _GROUP_BYTES)
            st = dgroups.get(k2)
            if st is None:
                dgroups[k2] = st = [a.init_state() for a in dist_aggs]
                dorder.append(k2)
            dupdate(st, row)
        sync(0, rba)
    for k2 in dorder:
        enter("exec.aggregate")
        compute(emit)
        finals = tuple(a.final(s) for a, s in zip(dist_aggs, dgroups[k2]))
        out.append(k2 + finals if isinstance(k2, tuple)
                   else (k2,) + finals)
    return out
