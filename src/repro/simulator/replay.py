"""Sweep-invariant replay kernels for the simulate phase (DESIGN.md §14).

The paper's central experiment sweeps the L2 dimension while everything on
the L1 side of the hierarchy stays fixed.  Warm-up walks every trace's
warm prefix through the private L1s; with no L2->L1 feedback, each core's
L1 hit/miss stream is a pure function of its own reference stream, so the
post-warm state can be computed *vectorially* (numpy) instead of
interpreting the stream event by event: classify per-core L1 hits with an
exact LRU law, derive the final set contents/dirty bits/owner map in
closed form (:func:`compute_warm_state`), and emit the merged L2 access
log, whose final L2 sets have a closed form too (:func:`final_l2_sets`).
Both are bit-identical to the interpreted warm.

The kernels fall back to the untouched interpreted path — automatically
and bit-exactly — whenever L2->L1 feedback can exist: SMP/MESI machines,
cross-core write-shared lines (realized L1 invalidations), or a machine
whose caches are not pristine.  Measurement always runs the full
interpreted access path.  The kernels run when numpy is importable; it
is imported at the first kernel call (:func:`_numpy`), not with this
module, so a process that never runs a kernel never loads it.  A
numpy-less host runs the interpreted path, and the differential oracle
(tests/test_simulate_kernel_oracle.py) pins equality both ways by
patching ``_np`` to None.

Exact LRU classification law (associativity A): a line ``l`` referenced at
position ``q`` and next at position ``p`` of a set's access subsequence is
evicted in between **iff** at least ``A`` distinct *other* lines are
referenced in the exclusive gap ``(q, p)`` — counting hits and misses,
pre-existing or new.  (Each fill first evicts untouched lines older than
``l``; the ``(u+1)``-th fill evicts ``l`` where ``u`` is the number of
untouched pre-existing lines, and touched + untouched + 1 = A.)  For the
2-way L1s this collapses to: *hit iff the previous occurrence is adjacent
in the set's subsequence, or every intervening reference names one single
other line* — one change-point cumsum per core.
"""

from __future__ import annotations

from array import array

from .cache import CLEAN, DIRTY

#: ``_np`` before the first kernel call has tried to import numpy.
_UNLOADED = object()

#: The numpy module the kernels run on, ``None`` when numpy is missing
#: (tests patch it to ``None`` to force the interpreted path).  Read it
#: through :func:`_numpy`, which imports numpy on first use.
_np = _UNLOADED


def _numpy():
    """The numpy module, imported on first call; ``None`` without numpy."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised on numpy-less hosts
            numpy = None
        _np = numpy
    return _np


#: Above this many statically write-shared lines the realized-invalidation
#: check would simulate most sets in Python anyway — bail to the full path
#: immediately instead (the check must stay much cheaper than what it saves).
_MAX_SUSPECT_LINES = 512


# --------------------------------------------------------------------- #
# Warm-phase kernel                                                      #
# --------------------------------------------------------------------- #

def warm_schedule(walkers, passes: int, chunk: int):
    """Reproduce ``Machine._warm``'s deterministic chunk schedule.

    Returns ``[(walker_idx, lo, hi), ...]`` in exactly the order the
    interpreted loop issues ``warm_block`` calls.
    """
    sched = []
    n = len(walkers)
    for _ in range(passes):
        cursors = [0] * n
        pending = [w for w in range(n) if walkers[w][2] > 0]
        while pending:
            nxt = []
            for w in pending:
                warm_len = walkers[w][2]
                pos = cursors[w]
                end = min(pos + chunk, warm_len)
                sched.append((w, pos, end))
                cursors[w] = end
                if end < warm_len:
                    nxt.append(w)
            pending = nxt
    return sched


def _classify_assoc2(lines, sets):
    """Exact L1 hit/miss classification for one core's 2-way stream.

    Args:
        lines: int64 line indexes in time order.
        sets: int64 set indexes (``lines % n_sets``).

    Returns:
        ``(hits, order, s_sorted, v_sorted)`` — per-event hit booleans in
        time order, plus the stable set-sort permutation and the sorted
        set/line columns (reused by the state construction).
    """
    m = len(lines)
    order = _np.argsort(sets, kind="stable")
    s_sorted = sets[order]
    v = lines[order]
    same_set = _np.empty(m, dtype=bool)
    if m:
        same_set[0] = False
        same_set[1:] = s_sorted[1:] == s_sorted[:-1]
    chg = _np.zeros(m, dtype=_np.int64)
    if m:
        chg[1:] = (v[1:] != v[:-1]) & same_set[1:]
    csum = _np.cumsum(chg)
    # Positions of each event in set-sorted coordinates; within one line's
    # occurrence group both sorts are stable, so these stay time-ordered.
    inv = _np.empty(m, dtype=_np.int64)
    inv[order] = _np.arange(m)
    lorder = _np.argsort(lines, kind="stable")
    lv = lines[lorder]
    lfirst = _np.empty(m, dtype=bool)
    if m:
        lfirst[0] = True
        lfirst[1:] = lv[1:] != lv[:-1]
    pset = inv[lorder]
    prev = _np.empty(m, dtype=_np.int64)
    if m:
        prev[0] = -1
        prev[1:] = pset[:-1]
    prev[lfirst] = -1
    has_prev = prev >= 0
    gap1 = has_prev & (pset - prev == 1)
    far = has_prev & ~gap1
    hit_far = _np.zeros(m, dtype=bool)
    if far.any():
        # All-equal window (q, p): no change points in v[q+2 .. p-1].
        hit_far[far] = csum[pset[far] - 1] == csum[prev[far] + 1]
    hits_l = gap1 | hit_far
    hits = _np.empty(m, dtype=bool)
    hits[lorder] = hits_l
    return hits, order, s_sorted, v, lorder, lv, lfirst, hits_l


def _final_l1_state(n_sets, order, s_sorted, v, lorder, lv, lfirst,
                    hits_l, writes):
    """Closed-form final 2-way set dicts for one core.

    Final contents of a set are its last two distinct lines; dict order is
    ascending last-access time (LRU first).  A resident line is DIRTY iff
    any write touched it at or after its last miss (= last fill).
    """
    m = len(v)
    sets_out = [dict() for _ in range(n_sets)]
    if not m:
        return sets_out
    # --- per-line dirty bits, in line-sorted coordinates --------------- #
    w_l = writes[lorder]
    idx = _np.arange(m, dtype=_np.int64)
    # Last-miss running index: every line group starts with a miss whose
    # index exceeds all earlier values, so a flat accumulate self-resets.
    lm = _np.where(~hits_l, idx, _np.int64(-1))
    run = _np.maximum.accumulate(lm)
    wc = _np.cumsum(w_l)
    gends = _np.append(_np.flatnonzero(lfirst)[1:], m) - 1
    f = run[gends]
    base = _np.where(f > 0, wc[_np.maximum(f - 1, 0)], 0)
    gdirty = (wc[gends] - base) > 0
    glines = lv[gends]  # ascending, unique

    def dirty_of(arr):
        return gdirty[_np.searchsorted(glines, arr)]

    # --- per-set residents, in set-sorted coordinates ------------------ #
    first = _np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = s_sorted[1:] != s_sorted[:-1]
    starts = _np.flatnonzero(first)
    ends = _np.append(starts[1:], m) - 1
    chg_pos = _np.flatnonzero(
        _np.concatenate(([False], (v[1:] != v[:-1]) & ~first[1:])))
    mru = v[ends]
    if len(chg_pos):
        jpos = _np.searchsorted(chg_pos, ends, side="right") - 1
        safe = _np.maximum(jpos, 0)
        # chg positions sit strictly inside a set's contiguous region, so
        # the last change belongs to *this* set iff it lies past the set's
        # start.
        has2 = (jpos >= 0) & (chg_pos[safe] > starts)
        second = v[_np.maximum(chg_pos[safe] - 1, 0)]
    else:
        # Every set only ever saw one distinct line: single resident each.
        has2 = _np.zeros(len(starts), dtype=bool)
        second = mru
    mru_dirty = dirty_of(mru)
    second_dirty = dirty_of(second)

    set_ids = s_sorted[starts].tolist()
    mru_t = mru.tolist()
    second_t = second.tolist()
    has2_t = has2.tolist()
    md_t = mru_dirty.tolist()
    sd_t = second_dirty.tolist()
    for k, sid in enumerate(set_ids):
        d = sets_out[sid]
        if has2_t[k]:
            d[second_t[k]] = DIRTY if sd_t[k] else CLEAN
        d[mru_t[k]] = DIRTY if md_t[k] else CLEAN
    return sets_out


def _realized_invalidations(per_core, suspects, n_sets, assoc):
    """Check whether any modeled L1 invalidation would actually fire.

    ``warm_block`` invalidates sibling copies only on a *write miss* to a
    line whose owner bits show a sibling resident — and the owner map
    tracks residency exactly.  So the kernel result is exact iff no core
    write-misses a suspect line while that line is resident in another
    core's L1.  Residency intervals are computed with tiny per-set Python
    sims of the suspect sets only, in global stream positions; since the
    first modeled invalidation coincides with the first real one, the
    check is sound in both directions.
    """
    suspect_sets = {line % n_sets for line in suspects}
    intervals: dict[int, dict[int, list]] = {}   # line -> core -> [s, e]*
    wmiss = []                                   # (gpos, core, line)
    for core, (lines, writes, gpos) in per_core.items():
        sets_arr = lines % n_sets
        mask = _np.isin(sets_arr, _np.fromiter(
            suspect_sets, dtype=_np.int64, count=len(suspect_sets)))
        if not mask.any():
            continue
        sub_lines = lines[mask].tolist()
        sub_writes = writes[mask].tolist()
        sub_gpos = gpos[mask].tolist()
        cache: dict[int, dict[int, int]] = {s: {} for s in suspect_sets}
        for line, wr, g in zip(sub_lines, sub_writes, sub_gpos):
            sdict = cache[line % n_sets]
            if line in sdict:
                del sdict[line]
                sdict[line] = 0
                continue
            if wr and line in suspects:
                wmiss.append((g, core, line))
            if len(sdict) >= assoc:
                vline = next(iter(sdict))
                del sdict[vline]
                if vline in suspects:
                    intervals[vline][core][-1][1] = g
            sdict[line] = 0
            if line in suspects:
                intervals.setdefault(line, {}).setdefault(
                    core, []).append([g, None])
    for g, core, line in wmiss:
        for other, spans in intervals.get(line, {}).items():
            if other == core:
                continue
            for s, e in spans:
                if s < g and (e is None or g < e):
                    return True
    return False


def _lw_column(trace):
    """``trace``'s references in the warm-log encoding ``(addr >> 6) << 1 |
    write``, as a numpy ``uint64`` array."""
    a = _np.frombuffer(trace.addrs, dtype=_np.uint64)
    m = _np.frombuffer(trace.meta, dtype=_np.uint64)
    return ((a >> _np.uint64(6)) << _np.uint64(1)) | (m & _np.uint64(1))


def shared_suspects(core_traces, lws) -> set[int] | None:
    """Statically write-shared lines across cores.

    ``lws`` maps each trace in ``core_traces`` to its
    :func:`_lw_column`; each trace's sorted unique (accessed, written)
    line sets are derived once per call.  Returns ``None`` when the
    suspect count exceeds :data:`_MAX_SUSPECT_LINES` (caller falls back).
    """
    line_sets = {}
    for tr, lw in lws.items():
        lines = (lw >> _np.uint64(1)).astype(_np.int64)
        line_sets[tr] = (_np.unique(lines),
                         _np.unique(lines[(lw & _np.uint64(1)) == 1]))
    acc = {}
    wr = {}
    for core_id, traces in core_traces.items():
        a_parts = [line_sets[tr][0] for tr in traces]
        w_parts = [line_sets[tr][1] for tr in traces]
        acc[core_id] = (a_parts[0] if len(a_parts) == 1
                        else _np.unique(_np.concatenate(a_parts)))
        wr[core_id] = (w_parts[0] if len(w_parts) == 1
                       else _np.unique(_np.concatenate(w_parts)))
    suspects: set[int] = set()
    for a, wlines in wr.items():
        if not len(wlines):
            continue
        for b, alines in acc.items():
            if a == b or not len(alines):
                continue
            shared = _np.intersect1d(wlines, alines, assume_unique=True)
            if len(shared):
                suspects.update(shared.tolist())
                if len(suspects) > _MAX_SUSPECT_LINES:
                    return None
    return suspects


def compute_warm_state(hier, walkers, passes: int, chunk: int):
    """Vectorized equivalent of the interpreted warm loop.

    Returns the ``(l1_sets, owners, l2_log)`` state tuple exactly as
    :meth:`SharedL2Hierarchy.capture_warm_state` would produce after the
    full walk, or ``None`` when the kernel cannot guarantee bit-exactness
    (no numpy, non-2-way L1s, non-pristine machine, too many statically
    write-shared lines, or a realized cross-core invalidation).  Each
    distinct trace's :func:`_lw_column` is derived once per call and
    dropped on return.  The structural bails run before numpy is
    imported, and the suspect cap before the global stream is built.
    """
    p = hier.params
    if p.l1_assoc != 2:
        return None
    l1d = hier._l1d
    if hier._l1_owners or any(s for c in l1d for s in c._sets):
        return None  # reused machine: warm continues from live state
    if any(s for s in hier.l2._sets):
        return None
    if _numpy() is None:
        return None
    sched = warm_schedule(walkers, passes, chunk)
    n_sets = l1d[0].n_sets
    empty_state = ([[dict() for _ in range(n_sets)] for _ in l1d],
                   {}, array("Q"))
    if not sched:
        return empty_state
    lws = {}
    for _core_id, tr, _warm_len in walkers:
        if tr not in lws:
            lws[tr] = _lw_column(tr)

    # Statically write-shared lines: some core writes, another accesses.
    # The per-trace line sets cover the *full* traces, a superset of the
    # warm prefixes — conservative (can only over-suspect, never miss).
    core_traces: dict[int, list] = {}
    for core_id, tr, _warm_len in walkers:
        core_traces.setdefault(core_id, []).append(tr)
    suspects = shared_suspects(core_traces, lws)
    if suspects is None:
        return None

    parts = []
    part_core = []
    part_len = []
    for w, lo, hi in sched:
        core_id, tr, _ = walkers[w]
        parts.append(lws[tr][lo:hi])
        part_core.append(core_id)
        part_len.append(hi - lo)
    glw = _np.concatenate(parts)
    gcore = _np.repeat(_np.asarray(part_core, dtype=_np.int64),
                       _np.asarray(part_len, dtype=_np.int64))

    per_core = {}
    for core_id in range(p.n_cores):
        gidx = _np.flatnonzero(gcore == core_id)
        if not len(gidx):
            continue
        lw_c = glw[gidx]
        lines = (lw_c >> _np.uint64(1)).astype(_np.int64)
        writes = (lw_c & _np.uint64(1)).astype(_np.int64)
        per_core[core_id] = (lines, writes, gidx)

    if suspects and _realized_invalidations(
            per_core, suspects, n_sets, 2):
        return None

    l1_sets = [[dict() for _ in range(n_sets)] for _ in l1d]
    owners: dict[int, int] = {}
    miss_gpos = []
    miss_lw = []
    for core_id, (lines, writes, gidx) in per_core.items():
        sets_arr = lines % n_sets
        (hits, order, s_sorted, v, lorder, lv, lfirst,
         hits_l) = _classify_assoc2(lines, sets_arr)
        l1_sets[core_id] = _final_l1_state(
            n_sets, order, s_sorted, v, lorder, lv, lfirst, hits_l, writes)
        bit = 1 << core_id
        for d in l1_sets[core_id]:
            for line in d:
                owners[line] = owners.get(line, 0) | bit
        miss_mask = ~hits
        miss_gpos.append(gidx[miss_mask])
        miss_lw.append(glw[gidx[miss_mask]])
    if miss_gpos:
        all_gpos = _np.concatenate(miss_gpos)
        all_lw = _np.concatenate(miss_lw)
        log_sorted = all_lw[_np.argsort(all_gpos, kind="stable")]
        log = array("Q")
        log.frombytes(log_sorted.tobytes())
    else:
        log = array("Q")
    return l1_sets, owners, log


# --------------------------------------------------------------------- #
# L2 log replay kernel                                                   #
# --------------------------------------------------------------------- #

#: Cap on summed window-slice work inside :func:`final_l2_sets`' dirty-bit
#: queries; past it the closed form would cost more than the loop it
#: replaces, so bail to the interpreted replay (bit-exact either way).
_MAX_QUERY_WORK = 1 << 22


def final_l2_sets(log, n_sets: int, assoc: int):
    """Exact final set dicts after replaying ``log`` from an empty cache.

    The final state of a true-LRU set is history-free: its contents are
    the last ``assoc`` distinct lines it saw, dict-ordered by last touch
    (LRU first).  Dirty bits need hit/miss classification only where a
    resident line's *last* write precedes later reads: the line is DIRTY
    iff every such trailing read is a hit (otherwise the last fill
    happened after the last write and filled CLEAN).  Each trailing read
    is classified exactly with the gap law in the module docstring —
    ``#distinct other lines in (q, p) < assoc`` — evaluated as one numpy
    count over the set's window.

    Returns ``None`` (caller runs the interpreted replay) without numpy
    or when the dirty-bit queries would outweigh the loop.
    """
    if _numpy() is None:
        return None
    m = len(log)
    sets_out = [dict() for _ in range(n_sets)]
    if not m:
        return sets_out
    glog = _np.frombuffer(log, dtype=_np.uint64)
    lines = (glog >> _np.uint64(1)).astype(_np.int64)
    writes = (glog & _np.uint64(1)).astype(_np.int64)
    s = lines % n_sets

    # --- per-distinct-line stats, in line-sorted coordinates ----------- #
    lorder = _np.argsort(lines, kind="stable")
    lv = lines[lorder]
    lfirst = _np.empty(m, dtype=bool)
    lfirst[0] = True
    lfirst[1:] = lv[1:] != lv[:-1]
    gstarts = _np.flatnonzero(lfirst)
    gends = _np.append(gstarts[1:], m) - 1
    glines = lv[gends]
    lastpos = lorder[gends]           # stable sort keeps time order
    w_l = writes[lorder]
    lastw = _np.maximum.reduceat(
        _np.where(w_l == 1, lorder, _np.int64(-1)), gstarts)

    # --- residents: last `assoc` distinct lines per set ---------------- #
    gset = glines % n_sets
    rorder = _np.lexsort((lastpos, gset))
    rs = gset[rorder]
    nr = len(rs)
    rfirst = _np.empty(nr, dtype=bool)
    rfirst[0] = True
    rfirst[1:] = rs[1:] != rs[:-1]
    rstarts = _np.flatnonzero(rfirst)
    rends = _np.append(rstarts[1:], nr)
    gidx = _np.cumsum(rfirst) - 1
    keep = _np.arange(nr) >= (rends[gidx] - assoc)
    res = rorder[keep]                # per set: LRU -> MRU order
    res_sets = rs[keep].tolist()
    res_lines = glines[res].tolist()

    # Everything below classifies only the residents — the lines whose
    # dirty bit actually survives into the final state.  Two cases are
    # immediate: never written -> CLEAN, last event is the write ->
    # DIRTY.  Only the remainder (a write with trailing reads) needs the
    # window-query machinery, so it is built lazily.
    lastw_r = lastw[res]
    states = _np.where(lastw_r == lastpos[res], DIRTY, CLEAN).tolist()
    ambiguous = _np.flatnonzero((lastw_r >= 0) & (lastw_r != lastpos[res]))

    if len(ambiguous):
        # Set-sorted stream with per-event previous-occurrence
        # positions: an event is the first reference to its line inside
        # a window (q, p) iff its previous occurrence sits at or
        # before q.
        sorder = _np.argsort(s, kind="stable")
        inv_s = _np.empty(m, dtype=_np.int64)
        inv_s[sorder] = _np.arange(m)
        pset = inv_s[lorder]
        prev_l = _np.empty(m, dtype=_np.int64)
        prev_l[0] = -1
        prev_l[1:] = pset[:-1]
        prev_l[lfirst] = -1
        prev_ss = _np.empty(m, dtype=_np.int64)
        prev_ss[pset] = prev_l
        budget = _MAX_QUERY_WORK
        for i in ambiguous.tolist():
            g = int(res[i])
            lw_ = int(lastw[g])
            gs, ge = int(gstarts[g]), int(gends[g])
            # Trailing reads after the last write: dirty iff all hit.
            start = gs + int(_np.searchsorted(
                lorder[gs:ge + 1], lw_, side="right"))
            state = DIRTY
            for j in range(start, ge + 1):
                q = prev_l[j]
                ps = pset[j]
                wlen = ps - q - 1
                if wlen < assoc:
                    continue  # cannot have `assoc` distinct others: hit
                budget -= wlen
                if budget < 0:
                    return None
                if int(_np.count_nonzero(prev_ss[q + 1:ps] <= q)) >= assoc:
                    state = CLEAN  # a trailing read missed: refilled clean
                    break
            states[i] = state

    for sid, line, state in zip(res_sets, res_lines, states):
        sets_out[sid][line] = state
    return sets_out
