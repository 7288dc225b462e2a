"""Oracle tests for :class:`SetAssocCache`.

The cache keeps each set as a list of line indexes in LRU..MRU order
and the states of its non-clean resident lines in one per-cache dict.
``NaiveCache`` below is the reference model: a state dict and an LRU
list per set, updated with plain ``list.remove`` / ``list.pop(0)``.
Both models are driven through 50k randomized access / insert /
invalidate / touch / lookup / set_state operations, asserting identical
per-op return values, identical stats (hits / misses / evictions /
writebacks) and identical final contents *in LRU order*.  A hypothesis
test runs the same comparison op by op and checks after every op that
the state map holds only resident lines and no ``CLEAN`` value (a stale
entry left by an eviction or invalidation would leak its state into the
line's next fill).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.cache import CLEAN, DIRTY, SetAssocCache


class NaiveCache:
    """Reference model: per-set state dict + explicit LRU list.

    This mirrors the pre-optimization implementation operation for
    operation; it is deliberately simple and slow.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int = 64):
        n_sets = size_bytes // (assoc * line_size)
        self.assoc = assoc
        self.n_sets = n_sets
        self._state = [dict() for _ in range(n_sets)]
        self._order = [list() for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def access(self, line, write):
        s = line % self.n_sets
        state, order = self._state[s], self._order[s]
        if line in state:
            self.hits += 1
            order.remove(line)
            order.append(line)
            if write:
                state[line] = DIRTY
            return True, None
        self.misses += 1
        victim = None
        if len(order) >= self.assoc:
            vline = order.pop(0)
            vstate = state.pop(vline)
            self.evictions += 1
            if vstate == DIRTY:
                self.writebacks += 1
            victim = (vline, vstate)
        state[line] = DIRTY if write else CLEAN
        order.append(line)
        return False, victim

    def lookup(self, line):
        return self._state[line % self.n_sets].get(line)

    def touch(self, line):
        s = line % self.n_sets
        order = self._order[s]
        if line in self._state[s]:
            order.remove(line)
            order.append(line)

    def set_state(self, line, new_state):
        s = line % self.n_sets
        if line not in self._state[s]:
            raise KeyError(line)
        self._state[s][line] = new_state

    def insert(self, line, state):
        s = line % self.n_sets
        st, order = self._state[s], self._order[s]
        if line in st:
            order.remove(line)
            order.append(line)
            st[line] = state
            return None
        victim = None
        if len(order) >= self.assoc:
            vline = order.pop(0)
            vstate = st.pop(vline)
            self.evictions += 1
            victim = (vline, vstate)
        st[line] = state
        order.append(line)
        return victim

    def invalidate(self, line):
        s = line % self.n_sets
        state = self._state[s].pop(line, None)
        if state is not None:
            self._order[s].remove(line)
        return state

    def contents(self):
        """Per-set (line, state) pairs in LRU-to-MRU order."""
        return [[(ln, self._state[s][ln]) for ln in order]
                for s, order in enumerate(self._order)]


def _optimized_contents(cache: SetAssocCache):
    """Per-set ``(line, state)`` pairs in LRU-to-MRU order."""
    states = cache._states
    return [[(ln, states.get(ln, CLEAN)) for ln in s] for s in cache._sets]


#: Operation mix: the access fast path dominates, with enough of the
#: fine-grained coherence primitives to shuffle LRU order between fills.
_OPS = (
    ("access", 60),
    ("insert", 10),
    ("invalidate", 10),
    ("touch", 8),
    ("lookup", 7),
    ("set_state", 5),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_50k_randomized_ops(seed):
    rng = random.Random(seed)
    opt = SetAssocCache("oracle", 4096, 4)   # 16 sets, 64-line capacity
    ref = NaiveCache(4096, 4)
    assert opt.n_sets == ref.n_sets == 16
    ops, weights = zip(*_OPS)
    n_lines = 128                            # 2x capacity: heavy conflict
    for step in range(50_000):
        op = rng.choices(ops, weights=weights)[0]
        line = rng.randrange(n_lines)
        if op == "access":
            write = rng.random() < 0.4
            assert opt.access(line, write) == ref.access(line, write), \
                f"step {step}: access({line}, {write}) diverged"
        elif op == "insert":
            state = rng.choice((CLEAN, DIRTY, 2, 3))  # incl. MESI-like
            assert opt.insert(line, state) == ref.insert(line, state), \
                f"step {step}: insert({line}, {state}) diverged"
        elif op == "invalidate":
            assert opt.invalidate(line) == ref.invalidate(line), \
                f"step {step}: invalidate({line}) diverged"
        elif op == "touch":
            opt.touch(line)
            ref.touch(line)
        elif op == "lookup":
            assert opt.lookup(line) == ref.lookup(line), \
                f"step {step}: lookup({line}) diverged"
        else:  # set_state: only legal on resident lines
            if ref.lookup(line) is None:
                with pytest.raises(KeyError):
                    opt.set_state(line, DIRTY)
            else:
                state = rng.choice((CLEAN, DIRTY, 2, 3))
                opt.set_state(line, state)
                ref.set_state(line, state)
        if step % 5000 == 0:
            assert line in opt or opt.lookup(line) is None
    # Identical event counters...
    assert opt.stats.hits == ref.hits
    assert opt.stats.misses == ref.misses
    assert opt.stats.evictions == ref.evictions
    assert opt.stats.writebacks == ref.writebacks
    # ...and identical final contents, including LRU order per set.
    assert _optimized_contents(opt) == ref.contents()


def test_oracle_odd_geometry():
    """Non-power-of-two set counts (scaled capacities) agree too."""
    rng = random.Random(99)
    opt = SetAssocCache("oracle", 26 * 64 * 2, 2)   # 26 sets, 2-way
    ref = NaiveCache(26 * 64 * 2, 2)
    assert opt.n_sets == ref.n_sets == 26
    for _ in range(20_000):
        line = rng.randrange(160)
        write = rng.random() < 0.5
        assert opt.access(line, write) == ref.access(line, write)
    assert _optimized_contents(opt) == ref.contents()
    assert (opt.stats.hits, opt.stats.misses, opt.stats.evictions,
            opt.stats.writebacks) == (ref.hits, ref.misses, ref.evictions,
                                      ref.writebacks)


#: States an op may write: plain clean/dirty and the MESI E (2) and M (3)
#: values the SMP private L2s store.
_STATES = st.sampled_from((CLEAN, DIRTY, 2, 3))
_LINES = st.integers(0, 47)
_OP = st.one_of(
    st.tuples(st.just("access"), _LINES, st.booleans()),
    st.tuples(st.just("insert"), _LINES, _STATES),
    st.tuples(st.just("invalidate"), _LINES, st.none()),
    st.tuples(st.just("touch"), _LINES, st.none()),
    st.tuples(st.just("lookup"), _LINES, st.none()),
    st.tuples(st.just("set_state"), _LINES, _STATES),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4 * 4 * 64, 4), (3 * 2 * 64, 2), (2 * 16 * 64, 16)]),
       st.lists(_OP, max_size=200))
def test_state_map_holds_only_resident_non_clean_lines(geometry, ops):
    size, assoc = geometry
    opt = SetAssocCache("inv", size, assoc)
    ref = NaiveCache(size, assoc)
    for op, line, arg in ops:
        if op == "access":
            assert opt.access(line, arg) == ref.access(line, arg)
        elif op == "insert":
            assert opt.insert(line, arg) == ref.insert(line, arg)
        elif op == "set_state":
            if ref.lookup(line) is None:
                with pytest.raises(KeyError):
                    opt.set_state(line, arg)
            else:
                opt.set_state(line, arg)
                ref.set_state(line, arg)
        elif op == "touch":
            opt.touch(line)
            ref.touch(line)
        else:
            assert getattr(opt, op)(line) == getattr(ref, op)(line)
        resident = {ln for s in opt._sets for ln in s}
        assert opt._states.keys() <= resident, f"{op}({line}) left a stale state"
        assert CLEAN not in opt._states.values(), f"{op}({line}) stored CLEAN"
        assert _optimized_contents(opt) == ref.contents()
    assert (opt.stats.hits, opt.stats.misses, opt.stats.evictions,
            opt.stats.writebacks) == (ref.hits, ref.misses, ref.evictions,
                                      ref.writebacks)
