"""Host-memory guards for the simulator's two largest per-item stores.

A cache set is a list of line indexes, at most a list header plus one
pointer per way (an insertion-ordered dict churned by hit reinserts
grows a 16-way set to a 32- or 64-slot table, 632 or 1,168 B).  A trace
builder's columns are ``array('Q')``, eight bytes per event each (a
list of ints holds a pointer plus a separate int object per event).
The bounds are pinned here so neither representation comes back
unnoticed.
"""

import random
import sys
import tracemalloc

import pytest

from repro.simulator.cache import SetAssocCache
from repro.simulator.trace import FLAG_WRITE, TraceBuilder

def _set_bound(assoc: int) -> int:
    """Largest ``sys.getsizeof`` of one set: a list header (56 B on
    64-bit CPython 3.11, rounded up) plus one 8-byte pointer per way."""
    return 96 + 8 * assoc


#: Bytes per event the two builder columns may hold: 16 B of payload
#: plus ``array``'s one-sixteenth over-allocation.
BUILDER_BYTES_PER_EVENT = 18


@pytest.mark.parametrize("assoc", [2, 16])
def test_cache_sets_stay_within_a_bound_per_way(assoc):
    n_sets = 8
    cache = SetAssocCache("guard", n_sets * assoc * 64, assoc)
    rng = random.Random(assoc)
    # 4x the capacity in distinct lines: every set sees conflict misses,
    # and repeated lines hit and move to MRU.
    n_lines = 4 * n_sets * assoc
    for _ in range(20_000):
        cache.access(rng.randrange(n_lines), rng.random() < 0.3)
    assert cache.stats.evictions > 0 and cache.stats.hits > 0
    sizes = [sys.getsizeof(s) for s in cache._sets]
    assert max(sizes) <= _set_bound(assoc), sizes


def test_trace_builder_columns_hold_at_most_16_bytes_per_event():
    n = 20_000
    base = 0x1_0000_0000   # past 32 bits: no small-int or narrow storage
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tb = TraceBuilder("guard")
        region = tb.register_code("op", 0x1000, 4)
        for i in range(n):
            tb.event(3 + i % 7, base + 64 * i, FLAG_WRITE * (i & 1), region)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tb) == n
    assert used <= BUILDER_BYTES_PER_EVENT * n, used / n
