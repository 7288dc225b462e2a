"""Conflict-serializability oracle over executed contention schedules.

Every schedule either CC executor commits must have an acyclic conflict
graph — that is the correctness bar for the whole contention study: the
logical executors interleave operations from many clients, and a cycle
would mean the committed state need not equal *any* serial order's.

The oracle itself (``conflict_edges`` / ``find_conflict_cycle``) reads
only the public ``ContentionResult.schedule``, so it lives here, and it
is exercised directly on handcrafted schedules first, so a pass on the
real executors means "no cycles", not "the oracle is blind".
"""

import pytest

from repro.workloads.contention import (
    SkewSpec,
    TxnRecord,
    simulate_contention,
)

SCALE = 0.05
THETAS = (0.0, 0.6, 1.2)
SEEDS = (42, 7)


# --------------------------------------------------------------------- #
# The oracle                                                             #
# --------------------------------------------------------------------- #

def conflict_edges(schedule: list) -> set:
    """``(ts_a, ts_b)`` edges: a's op conflicts-before b's op.

    Two operations conflict when they touch the same resource, come from
    different transactions, and at least one writes; the edge points
    from the transaction whose operation executed first (smaller global
    sequence number).
    """
    by_resource: dict = {}
    for rec in schedule:
        for seq, resource, write in rec.ops:
            by_resource.setdefault(resource, []).append(
                (seq, rec.ts, write))
    edges = set()
    for accesses in by_resource.values():
        accesses.sort()
        for i, (_, ts_a, write_a) in enumerate(accesses):
            for _, ts_b, write_b in accesses[i + 1:]:
                if ts_a != ts_b and (write_a or write_b):
                    edges.add((ts_a, ts_b))
    return edges


def find_conflict_cycle(schedule: list) -> list | None:
    """A cycle in the conflict graph (as a ts list), or None.

    Iterative three-color DFS — schedules can be long and Python's
    recursion limit is not part of the oracle's contract.
    """
    edges = conflict_edges(schedule)
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    for neighbors in adjacency.values():
        neighbors.sort()
    color: dict = {}
    parent: dict = {}
    for root in sorted(adjacency):
        if color.get(root):
            continue
        stack = [(root, iter(adjacency.get(root, ())))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if color.get(nxt) == 1:  # back edge: reconstruct cycle
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def is_conflict_serializable(schedule: list) -> bool:
    """Acyclicity of the committed schedule's conflict graph."""
    return find_conflict_cycle(schedule) is None


def _txn(ts, ops):
    """A TxnRecord from ``(seq, resource, write)`` triples."""
    return TxnRecord(ts=ts, client=0, kind="t", ops=list(ops),
                     commit_seq=max((seq for seq, _, _ in ops), default=0))


# --------------------------------------------------------------------- #
# The oracle on handcrafted schedules                                    #
# --------------------------------------------------------------------- #

def test_oracle_empty_schedule():
    assert conflict_edges([]) == set()
    assert find_conflict_cycle([]) is None
    assert is_conflict_serializable([])


def test_oracle_read_read_is_no_conflict():
    sched = [_txn(1, [(1, "a", False)]), _txn(2, [(2, "a", False)])]
    assert conflict_edges(sched) == set()
    assert is_conflict_serializable(sched)


@pytest.mark.parametrize("w1, w2", [(True, False), (False, True),
                                    (True, True)])
def test_oracle_edge_direction(w1, w2):
    """Any pair with >= 1 write conflicts, ordered by sequence number."""
    sched = [_txn(1, [(1, "a", w1)]), _txn(2, [(2, "a", w2)])]
    assert conflict_edges(sched) == {(1, 2)}
    assert is_conflict_serializable(sched)


def test_oracle_detects_two_txn_cycle():
    # T1 writes a before T2, but T2 writes b before T1: a cycle.
    sched = [
        _txn(1, [(1, "a", True), (4, "b", True)]),
        _txn(2, [(2, "a", True), (3, "b", True)]),
    ]
    assert conflict_edges(sched) == {(1, 2), (2, 1)}
    assert not is_conflict_serializable(sched)
    cycle = find_conflict_cycle(sched)
    assert cycle is not None
    assert set(cycle) >= {1, 2}


def test_oracle_detects_three_txn_cycle():
    # 1 -> 2 on a, 2 -> 3 on b, 3 -> 1 on c.
    sched = [
        _txn(1, [(1, "a", True), (6, "c", True)]),
        _txn(2, [(2, "a", True), (3, "b", True)]),
        _txn(3, [(4, "b", True), (5, "c", True)]),
    ]
    assert conflict_edges(sched) == {(1, 2), (2, 3), (3, 1)}
    assert not is_conflict_serializable(sched)
    assert set(find_conflict_cycle(sched)) >= {1, 2, 3}


def test_oracle_acyclic_chain_passes():
    sched = [
        _txn(1, [(1, "a", True)]),
        _txn(2, [(2, "a", False), (3, "b", True)]),
        _txn(3, [(4, "b", False)]),
    ]
    assert conflict_edges(sched) == {(1, 2), (2, 3)}
    assert is_conflict_serializable(sched)
    assert find_conflict_cycle(sched) is None


# --------------------------------------------------------------------- #
# The executors against the oracle                                       #
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("cc_mode", ["2pl", "partitioned"])
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("seed", SEEDS)
def test_executed_schedules_are_serializable(cc_mode, theta, seed):
    result = simulate_contention(scale=SCALE, skew=SkewSpec(theta=theta),
                                 cc_mode=cc_mode, seed=seed)
    assert is_conflict_serializable(result.schedule)
    assert find_conflict_cycle(result.schedule) is None
    # Every submitted transaction eventually commits exactly once.
    assert result.commits == len(result.schedule)
    assert result.commits == result.n_clients * result.txns_per_client
    assert sorted(t.ts for t in result.schedule) == list(range(result.commits))


@pytest.mark.parametrize("cc_mode", ["2pl", "partitioned"])
def test_hotspot_schedules_are_serializable(cc_mode):
    """The worst case the knobs can express stays serializable."""
    skew = SkewSpec(theta=1.2, hot_warehouses=1, cross_rate=0.5)
    result = simulate_contention(scale=SCALE, skew=skew, cc_mode=cc_mode)
    assert is_conflict_serializable(result.schedule)
    assert result.commits == result.n_clients * result.txns_per_client


def test_schedule_ops_are_well_formed():
    """Oracle inputs: strictly increasing unique seqs, commit_seq last."""
    result = simulate_contention(scale=SCALE, skew=SkewSpec(theta=0.9),
                                 cc_mode="2pl")
    seen = set()
    for txn in result.schedule:
        seqs = [seq for seq, _, _ in txn.ops]
        assert seqs == sorted(seqs)
        assert txn.commit_seq > max(seqs)
        assert not (set(seqs) & seen)
        seen.update(seqs)


def test_partitioned_schedule_is_timestamp_ordered():
    """The deterministic mode commits in global timestamp order."""
    result = simulate_contention(scale=SCALE, skew=SkewSpec(theta=0.9),
                                 cc_mode="partitioned")
    commit_order = [t.ts for t in
                    sorted(result.schedule, key=lambda t: t.commit_seq)]
    assert commit_order == sorted(commit_order)
