"""Property test: the set-associative cache against a reference LRU model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.cache import SetAssocCache


class ReferenceLRU:
    """Oblivious per-set LRU model built from dictionaries."""

    def __init__(self, n_sets: int, assoc: int):
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line: int, write: bool):
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            if write:
                s[line] = 1
            return True
        victim = None
        if len(s) >= self.assoc:
            victim = s.popitem(last=False)
        s[line] = 1 if write else 0
        return False, victim


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).map(lambda k: 2 ** k),     # assoc
    st.integers(2, 16),                          # sets
    st.lists(st.tuples(st.integers(0, 200), st.booleans()),
             max_size=400),
)
def test_cache_matches_reference(assoc, n_sets, accesses):
    cache = SetAssocCache("T", n_sets * assoc * 64, assoc)
    ref = ReferenceLRU(n_sets, assoc)
    hits = misses = 0
    for line, write in accesses:
        got_hit, _ = cache.access(line, write)
        ref_out = ref.access(line, write)
        ref_hit = ref_out is True
        assert got_hit == ref_hit, f"divergence on line {line}"
        if got_hit:
            hits += 1
        else:
            misses += 1
    assert cache.stats.hits == hits
    assert cache.stats.misses == misses
    # Residency agrees exactly.
    for s_idx, s in enumerate(ref.sets):
        for line, dirty in s.items():
            assert line in cache
            assert cache.lookup(line) == dirty
    sets, _ = cache.snapshot_sets()
    assert sum(map(len, sets)) == sum(len(s) for s in ref.sets)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.booleans()),
                min_size=1, max_size=300))
def test_writeback_count_matches_dirty_evictions(accesses):
    cache = SetAssocCache("T", 4 * 2 * 64, 2)  # tiny: 4 sets x 2 ways
    dirty_evicted = 0
    for line, write in accesses:
        _, victim = cache.access(line, write)
        if victim is not None and victim[1] == 1:
            dirty_evicted += 1
    assert cache.stats.writebacks == dirty_evicted
    assert cache.stats.evictions >= dirty_evicted
