"""The functional warm walk (DESIGN.md §14).

Before it measures, a machine warms its caches functionally: every trace's
warm prefix is walked through the hierarchy in round-robin chunks, so the
shared L2 sees a realistic mix of all clients rather than one client at a
time.  On the shared-L2 CMP hierarchy nothing flows from the L2 back into
the L1s, so the walk's end state — the L1 sets, the owner map and the
sequence of L2 accesses — does not depend on the L2.  The walk captures
that state, ``Machine._warm`` memoizes it under an L2-free key, and every
later L2 size of a sweep restores it by replaying the logged L2 accesses
(:meth:`.hierarchy.SharedL2Hierarchy.restore_warm_state`).
"""

from __future__ import annotations

from .hierarchy import SharedL2Hierarchy
from .trace import FLAG_WRITE


def compute_warm_state(hier, walkers, passes: int, chunk: int):
    """Walk every warm prefix through ``hier``; return the warm state.

    ``walkers`` are ``(core_id, trace, warm_len)`` in slot order; each
    pass advances them round-robin, ``chunk`` references per turn, in
    ascending walker index.  On a shared-L2 hierarchy the walk logs its
    L2 accesses and returns the ``(l1_sets, owners, l2_log)`` tuple of
    :meth:`.hierarchy.SharedL2Hierarchy.capture_warm_state`; the private
    L2s of an SMP keep no log, and the walk returns ``None`` there.
    Either way ``hier`` is left warm.
    """
    shared = isinstance(hier, SharedL2Hierarchy)
    if shared:
        hier.begin_warm_log()
    warm_block = hier.warm_block
    # Each walker's per-kind write bits: the walk reads a reference's
    # write bit as ``writes[kinds[i]]``.
    columns = [(tr.addrs, tr.kinds,
                bytes(flags & FLAG_WRITE for _, flags, _ in tr.events))
               for _, tr, _ in walkers]
    for _ in range(passes):
        cursors = [0] * len(walkers)
        # An explicit list keeps the walk order deterministic by
        # construction (ascending walker index, matching what set
        # iteration over small ints always produced).
        pending = [w for w in range(len(walkers)) if walkers[w][2] > 0]
        while pending:
            nxt = []
            for w in pending:
                core_id, _, warm_len = walkers[w]
                pos = cursors[w]
                end = min(pos + chunk, warm_len)
                warm_block(core_id, *columns[w], pos, end)
                cursors[w] = end
                if end < warm_len:
                    nxt.append(w)
            pending = nxt
    return hier.capture_warm_state() if shared else None
