"""High-contention OLTP: skew knobs and the concurrency-control executor.

The paper characterizes OLTP only under uniform, low-conflict traffic;
the interesting regime on modern multicores is skewed, conflict-heavy
load where lock waits and coherence traffic — not data stalls — dominate
(Ren/Faleiro/Abadi, PAPERS.md).  This module makes contention a
first-class dimension of the study:

- :class:`SkewSpec` — the opt-in skew knobs (``theta`` Zipfian exponent,
  ``hot_warehouses`` hotspot subset, ``cross_rate`` cross-warehouse
  probability).  The default spec is inert: trace builders given it (or
  None) follow the exact pre-existing code path, so default
  configurations stay bit-identical.
- A *logical* transaction model: each TPC-C transaction reduced to its
  ordered read/write set over named resources plus commutative integer
  effects.  Trace generation runs clients one at a time (conflicts can
  never block there), so the concurrency-control comparison runs here,
  where transactions genuinely interleave operation by operation.
- Two concurrency-control executors over the same seeded transaction
  stream: lock-based strict 2PL with wound-wait conflict resolution
  (:func:`_run_2pl`, built on the real :class:`repro.db.txn.LockManager`),
  and partitioned/deterministic ordering — per-partition single-owner
  execution in a deterministic global timestamp order, the
  Calvin/H-Store family (:func:`_run_partitioned`).
- :class:`ContentionResult` — the executed schedule (per-committed-txn
  read/write sets with global sequence numbers), the committed database
  state, and the contention accounting (aborts, lock-wait, wasted work)
  that the sweep layer folds into the simulator's breakdown.  The
  conflict-serializability oracle that checks every schedule lives in
  ``tests/test_txn_serializability.py``.

Why effects are commutative integers: both executors must produce the
*same* committed state from the same seeded workload (the differential
suite in ``tests/test_cc_equivalence.py`` proves it), but they commit
conflicting transactions in different serialization orders.  Every
logical write is therefore an integer delta (balances in cents, counter
bumps) or an insert under an input-derived key, so the final state
depends only on the committed *set* — any conflict-serializable
execution of it yields identical rows.  The conflict structure (which
keys, which modes, in what order) is untouched by this choice, which is
what the contention measurements are made of.
"""

from __future__ import annotations

import bisect
import random
import sys
from dataclasses import dataclass, field

from ..db.txn import LockConflict, LockManager, LockMode, validate_cc_mode
from ..simulator.addresses import AddressSpace

__all__ = [
    "ContentionResult",
    "SkewSpec",
    "TxnRecord",
    "ZipfGenerator",
    "simulate_contention",
]

#: Standard TPC-C transaction mix (cumulative weights) — mirrored from
#: the trace driver (:mod:`repro.workloads.tpcc` imports *this* module
#: for the skew knobs, so the constant cannot live there alone).
MIX = (
    ("neworder", 0.45),
    ("payment", 0.88),
    ("orderstatus", 0.92),
    ("delivery", 0.96),
    ("stocklevel", 1.00),
)

#: Default logical clients / transactions for one contention run: enough
#: interleaving for conflicts to matter, small enough that an executor
#: run costs milliseconds.
DEFAULT_CLIENTS = 16
DEFAULT_TXNS_PER_CLIENT = 24


# ---------------------------------------------------------------------- #
# Skew knobs                                                              #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class SkewSpec:
    """Opt-in contention knobs for the TPC-C driver.

    Attributes:
        theta: Zipfian exponent for warehouse/item choice.  0 keeps the
            benchmark's stock distributions (popular subset + NURand);
            rising theta concentrates traffic until a handful of rows
            absorb most of it (~0.9 resembles YCSB's "zipfian", >1.2 is
            pathological).
        hot_warehouses: Restrict client home warehouses to the first N
            warehouses, so more clients share each warehouse's hot rows.
            None keeps one home per ``client_no % warehouses``.
        cross_rate: Probability that an order line's supplier (and a
            payment's customer) is remote, overriding the spec's 1%/15%.
            None keeps the spec rates.
    """

    theta: float = 0.0
    hot_warehouses: int | None = None
    cross_rate: float | None = None

    def __post_init__(self):
        # Bounded by the largest float, not math.isfinite, which raises
        # OverflowError on an int no float can hold.
        if (not isinstance(self.theta, (int, float))
                or isinstance(self.theta, bool)
                or not 0 <= self.theta <= sys.float_info.max):
            raise ValueError(
                f"skew_theta must be finite and >= 0, got {self.theta!r}")
        if self.hot_warehouses is not None and (
                not isinstance(self.hot_warehouses, int)
                or isinstance(self.hot_warehouses, bool)
                or self.hot_warehouses < 1):
            raise ValueError(
                "hot_warehouses must be a positive integer or None, "
                f"got {self.hot_warehouses!r}")
        if self.cross_rate is not None and not (
                isinstance(self.cross_rate, (int, float))
                and not isinstance(self.cross_rate, bool)
                and 0.0 <= self.cross_rate <= 1.0):
            raise ValueError(
                f"cross_rate must be in [0, 1] or None, "
                f"got {self.cross_rate!r}")

    @property
    def active(self) -> bool:
        """True when any knob departs from the uniform default."""
        return (self.theta > 0 or self.hot_warehouses is not None
                or self.cross_rate is not None)

    def key(self) -> tuple:
        """Hashable identity for cache/trace-store keys."""
        return (self.theta, self.hot_warehouses, self.cross_rate)

    def describe(self) -> str:
        """Short label for workload names and reports."""
        if not self.active:
            return "uniform"
        parts = [f"z{self.theta:g}"]
        if self.hot_warehouses is not None:
            parts.append(f"h{self.hot_warehouses}")
        if self.cross_rate is not None:
            parts.append(f"x{self.cross_rate:g}")
        return "-".join(parts)


def as_skew(skew) -> SkewSpec:
    """Coerce None (inert default) or a SkewSpec; reject anything else."""
    if skew is None:
        return SkewSpec()
    if isinstance(skew, SkewSpec):
        return skew
    raise TypeError(f"skew must be a SkewSpec or None, got {skew!r}")


class ZipfGenerator:
    """Zipfian sampler over ranks ``0..n-1`` (rank 0 hottest).

    Probability of rank ``k`` is proportional to ``1/(k+1)**theta``.
    Sampling draws one ``rng.random()`` and bisects the precomputed CDF,
    so a skewed draw costs the same rng-stream advance as a uniform one.
    """

    def __init__(self, n: int, theta: float):
        if n < 1:
            raise ValueError("ZipfGenerator needs n >= 1")
        if theta < 0:
            raise ValueError("ZipfGenerator needs theta >= 0")
        self.n = n
        self.theta = theta
        acc = 0.0
        cdf = []
        for k in range(n):
            # A float base keeps an int theta off exact big-int powers;
            # for a float theta it is the same pow.
            try:
                acc += 1.0 / float(k + 1) ** theta
            except OverflowError:
                pass  # the term is below 1e-308: acc (>= 1) keeps its bits
            cdf.append(acc)
        self._cdf = [c / acc for c in cdf]

    def sample(self, rng: random.Random) -> int:
        """Draw a rank in ``[0, n)``."""
        return bisect.bisect_left(self._cdf, rng.random())


# ---------------------------------------------------------------------- #
# Logical transactions                                                    #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class LogicalTxn:
    """One transaction as the CC layer sees it.

    Attributes:
        ts: Deterministic global timestamp (the partitioned mode's
            execution order; the 2PL mode's wound-wait priority).
        client: Originating logical client.
        kind: Transaction type name (mix bookkeeping).
        ops: Ordered ``(resource, write)`` pairs — the read/write set.
        effects: Commutative state updates applied at commit:
            ``("add", key, int_delta)`` or ``("put", key, value)`` with
            an input-derived key (see module docstring).
        partitions: Warehouses touched (the partitioned mode's lock set).
    """

    ts: int
    client: int
    kind: str
    ops: tuple
    effects: tuple
    partitions: frozenset


@dataclass
class TxnRecord:
    """One committed transaction's slice of the executed schedule.

    ``ops`` holds ``(seq, resource, write)`` with ``seq`` the global
    operation sequence number of the committing attempt — what the
    conflict-serializability oracle consumes.
    """

    ts: int
    client: int
    kind: str
    ops: list = field(default_factory=list)
    commit_seq: int = 0


def _apply(state: dict, effects: tuple) -> None:
    for effect in effects:
        op, key, value = effect
        if op == "add":
            state[key] = state.get(key, 0) + value
        else:  # "put": input-derived unique key
            state[key] = value


class _TxnStream:
    """Seeded generator of the logical transaction stream.

    Mirrors the trace driver's structure — per-client rng streams seeded
    ``seed * 10_007 + client``, the standard mix, home warehouse
    ``client % warehouses`` (restricted by ``hot_warehouses``) — over the
    logical resource vocabulary.  Order ids are input-derived (a
    per-district sequence assigned at generation time) so committed rows
    are identical under any conflict-serializable execution; the
    read-increment-write conflict on the district row is still present
    in every NewOrder's op list.
    """

    def __init__(self, warehouses: int, districts: int, customers: int,
                 items: int, skew: SkewSpec, seed: int):
        self.warehouses = warehouses
        self.districts = districts
        self.customers = customers
        self.items = items
        self.skew = skew
        self.seed = seed
        theta = skew.theta
        self._item_zipf = ZipfGenerator(items, theta)
        self._wh_zipf = (ZipfGenerator(warehouses - 1, theta)
                         if warehouses > 1 else None)
        self._cust_zipf = ZipfGenerator(customers, theta)
        self._next_o: dict[tuple, int] = {}

    def home_for(self, client: int) -> int:
        pool = self.warehouses
        if self.skew.hot_warehouses is not None:
            pool = min(self.skew.hot_warehouses, self.warehouses)
        return client % pool

    def _remote_wh(self, rng: random.Random, home: int) -> int:
        """A warehouse other than ``home`` (skew-weighted when active)."""
        if self._wh_zipf is None:
            return home
        w = self._wh_zipf.sample(rng)
        return w + 1 if w >= home else w

    def _item(self, rng: random.Random) -> int:
        return self._item_zipf.sample(rng)

    def _neworder(self, rng, ts, client, home) -> LogicalTxn:
        d = rng.randrange(self.districts)
        c = self._cust_zipf.sample(rng)
        cross = (self.skew.cross_rate if self.skew.cross_rate is not None
                 else 0.01)
        ops = [(("district", home, d), True),
               (("customer", home, d, c), False)]
        parts = {home}
        effects = [("add", ("d_next_o", home, d), 1)]
        o_seq = self._next_o.get((home, d), 0)
        self._next_o[(home, d)] = o_seq + 1
        lines = []
        for number in range(rng.randint(5, 15)):
            i = self._item(rng)
            supply = home
            if self.warehouses > 1 and rng.random() < cross:
                supply = self._remote_wh(rng, home)
            qty = rng.randint(1, 10)
            ops.append((("item", i), False))
            ops.append((("stock", supply, i), True))
            parts.add(supply)
            effects.append(("add", ("s_qty", supply, i), -qty))
            effects.append(("add", ("s_cnt", supply, i), 1))
            lines.append((i, supply, qty))
        effects.append(("put", ("order", home, d, o_seq),
                        (client, c, tuple(lines))))
        return LogicalTxn(ts, client, "neworder", tuple(ops),
                          tuple(effects), frozenset(parts))

    def _payment(self, rng, ts, client, home) -> LogicalTxn:
        d = rng.randrange(self.districts)
        amount = rng.randint(100, 500_000)  # cents
        cross = (self.skew.cross_rate if self.skew.cross_rate is not None
                 else 0.15)
        c_w, c_d = home, d
        if self.warehouses > 1 and rng.random() < cross:
            c_w = self._remote_wh(rng, home)
            c_d = rng.randrange(self.districts)
        c = self._cust_zipf.sample(rng)
        ops = ((("warehouse", home), True),
               (("district", home, d), True),
               (("customer", c_w, c_d, c), True))
        effects = (("add", ("w_ytd", home), amount),
                   ("add", ("d_ytd", home, d), amount),
                   ("add", ("c_balance", c_w, c_d, c), -amount))
        return LogicalTxn(ts, client, "payment", ops, effects,
                          frozenset({home, c_w}))

    def _orderstatus(self, rng, ts, client, home) -> LogicalTxn:
        d = rng.randrange(self.districts)
        c = self._cust_zipf.sample(rng)
        ops = ((("customer", home, d, c), False),
               (("district", home, d), False))
        return LogicalTxn(ts, client, "orderstatus", ops, (),
                          frozenset({home}))

    def _delivery(self, rng, ts, client, home) -> LogicalTxn:
        c = self._cust_zipf.sample(rng)
        ops = []
        effects = []
        for d in range(self.districts):
            ops.append((("district", home, d), True))
            effects.append(("add", ("d_delivered", home, d), 1))
        ops.append((("customer", home, 0, c), True))
        effects.append(("add", ("c_balance", home, 0, c), 1))
        return LogicalTxn(ts, client, "delivery", tuple(ops),
                          tuple(effects), frozenset({home}))

    def _stocklevel(self, rng, ts, client, home) -> LogicalTxn:
        d = rng.randrange(self.districts)
        ops = [(("district", home, d), False)]
        for _ in range(8):
            ops.append((("stock", home, self._item(rng)), False))
        return LogicalTxn(ts, client, "stocklevel", tuple(ops), (),
                          frozenset({home}))

    def generate(self, n_clients: int, txns_per_client: int) -> list:
        """The full stream, timestamped round-robin across clients."""
        builders = {"neworder": self._neworder, "payment": self._payment,
                    "orderstatus": self._orderstatus,
                    "delivery": self._delivery,
                    "stocklevel": self._stocklevel}
        rngs = [random.Random(self.seed * 10_007 + c)
                for c in range(n_clients)]
        txns = []
        ts = 0
        for _ in range(txns_per_client):
            for client in range(n_clients):
                rng = rngs[client]
                roll = rng.random()
                for name, cum in MIX:
                    if roll <= cum:
                        txns.append(builders[name](
                            rng, ts, client, self.home_for(client)))
                        ts += 1
                        break
        return txns


# ---------------------------------------------------------------------- #
# Results                                                                 #
# ---------------------------------------------------------------------- #

@dataclass
class ContentionResult:
    """Everything one concurrency-control run produces.

    Attributes:
        cc_mode: ``"2pl"`` or ``"partitioned"``.
        skew: The skew knobs the stream was generated with.
        n_clients / txns_per_client / seed: Stream coordinates.
        commits: Committed transactions (always the full stream — aborted
            attempts restart until they commit).
        aborts: Aborted *attempts* (2PL wound/die restarts; 0 under
            partitioned ordering).
        busy_units: Operations executed by committing attempts.
        wasted_units: Operations executed by attempts that later aborted.
        lock_wait_units: Operation slots spent blocked on a lock (2PL:
            rounds a died transaction waited for the conflicting holder;
            partitioned: partition-idle slots while a cross-partition
            transaction held the partition's turn).
        state: Committed database state (resource key -> value).
        schedule: Per-committed-transaction :class:`TxnRecord` with
            globally sequenced read/write ops — the oracle's input.
    """

    cc_mode: str
    skew: SkewSpec
    n_clients: int
    txns_per_client: int
    seed: int
    commits: int = 0
    aborts: int = 0
    busy_units: int = 0
    wasted_units: int = 0
    lock_wait_units: int = 0
    state: dict = field(default_factory=dict)
    schedule: list = field(default_factory=list)

    @property
    def abort_rate(self) -> float:
        """Aborted attempts per attempt."""
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0

    @property
    def lock_wait_share(self) -> float:
        """Lock-wait slots as a fraction of all accounted slots."""
        total = self.busy_units + self.wasted_units + self.lock_wait_units
        return self.lock_wait_units / total if total else 0.0

    @property
    def wasted_share(self) -> float:
        """Aborted-attempt work as a fraction of all accounted slots."""
        total = self.busy_units + self.wasted_units + self.lock_wait_units
        return self.wasted_units / total if total else 0.0


# ---------------------------------------------------------------------- #
# Executor: lock-based strict 2PL (wound-wait)                            #
# ---------------------------------------------------------------------- #

class _Client2PL:
    """One logical client's execution state in the 2PL interleaver."""

    __slots__ = ("queue", "txn", "cursor", "record", "waiting_on")

    def __init__(self):
        self.queue: list = []
        self.txn: LogicalTxn | None = None
        self.cursor = 0
        self.record: TxnRecord | None = None
        self.waiting_on = None  # resource blocking this client, or None


def _run_2pl(txns: list, n_clients: int, result: ContentionResult) -> None:
    """Interleave clients one operation per visit under strict 2PL.

    Conflicts resolve wound-wait on the deterministic timestamps: an
    older requester aborts ("wounds") every younger holder and proceeds;
    a younger requester aborts itself ("dies"), releases its locks, and
    waits for the resource before restarting.  Deadlock-free (the oldest
    active transaction always progresses) and starvation-free (a
    restarted transaction keeps its timestamp, so it eventually becomes
    the oldest).  Strict two-phase locking makes every committed
    schedule conflict-serializable — the oracle verifies rather than
    assumes it.
    """
    locks = LockManager(AddressSpace())
    clients = [_Client2PL() for _ in range(n_clients)]
    for txn in txns:
        clients[txn.client].queue.append(txn)
    for client in clients:
        client.queue.reverse()  # pop() from the tail = FIFO
    owner: dict[int, _Client2PL] = {}  # ts -> client (active txns)
    seq = 0
    active = n_clients

    def start_next(client: _Client2PL) -> None:
        if client.queue:
            client.txn = client.queue.pop()
            client.cursor = 0
            client.record = TxnRecord(client.txn.ts, client.txn.client,
                                      client.txn.kind)
            owner[client.txn.ts] = client
        else:
            client.txn = None

    def abort(client: _Client2PL) -> None:
        """Discard the attempt: release locks, rewind, count the work."""
        locks.release_all(client.txn.ts)
        result.aborts += 1
        result.wasted_units += len(client.record.ops)
        client.record = TxnRecord(client.txn.ts, client.txn.client,
                                  client.txn.kind)
        client.cursor = 0

    for client in clients:
        start_next(client)
    while active:
        active = 0
        for client in clients:
            txn = client.txn
            if txn is None:
                continue
            active += 1
            if client.waiting_on is not None:
                holders = locks.holders(client.waiting_on)
                if holders and holders != {txn.ts}:
                    result.lock_wait_units += 1
                    continue
                client.waiting_on = None
            if client.cursor >= len(txn.ops):
                # All ops done: commit (strict 2PL release-at-end).
                _apply(result.state, txn.effects)
                locks.release_all(txn.ts)
                client.record.commit_seq = seq
                result.schedule.append(client.record)
                result.commits += 1
                result.busy_units += len(client.record.ops)
                del owner[txn.ts]
                start_next(client)
                continue
            resource, write = txn.ops[client.cursor]
            mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
            try:
                locks.acquire(txn.ts, resource, mode)
            except LockConflict:
                blockers = locks.holders(resource) - {txn.ts}
                if blockers and max(blockers) > txn.ts and all(
                        b > txn.ts for b in blockers):
                    # Wound: every holder is younger — abort them all,
                    # then take the lock this same slot.
                    for ts_b in sorted(blockers):
                        abort(owner[ts_b])
                    result.lock_wait_units += 1
                    locks.acquire(txn.ts, resource, mode)
                else:
                    # Die: an older holder exists.  Release everything
                    # and wait for the resource to clear.
                    abort(client)
                    client.waiting_on = resource
                    result.lock_wait_units += 1
                    continue
            client.record.ops.append((seq, resource, write))
            seq += 1
            client.cursor += 1


# ---------------------------------------------------------------------- #
# Executor: partitioned / deterministic ordering                          #
# ---------------------------------------------------------------------- #

def _run_partitioned(txns: list, result: ContentionResult) -> None:
    """Single-owner partitions, deterministic global order.

    Every transaction executes atomically at its timestamp turn; its
    partition set (the warehouses it touches) is claimed for the
    duration.  A cross-partition transaction starts when its slowest
    partition frees up, idling the others — those idle slots are the
    mode's lock-wait analog (there are no aborts by construction).
    """
    clocks: dict = {}
    now = 0
    seq = 0
    for txn in sorted(txns, key=lambda t: t.ts):
        start = max([clocks.get(p, 0) for p in txn.partitions] or [0])
        result.lock_wait_units += sum(
            start - clocks.get(p, 0) for p in txn.partitions)
        record = TxnRecord(txn.ts, txn.client, txn.kind)
        for resource, write in txn.ops:
            record.ops.append((seq, resource, write))
            seq += 1
        duration = len(txn.ops)
        for p in txn.partitions:
            clocks[p] = start + duration
        now = max(now, start + duration)
        _apply(result.state, txn.effects)
        record.commit_seq = seq
        result.schedule.append(record)
        result.commits += 1
        result.busy_units += duration


# ---------------------------------------------------------------------- #
# Entry point                                                             #
# ---------------------------------------------------------------------- #

def simulate_contention(scale: float = 0.05,
                        skew: SkewSpec | None = None,
                        cc_mode: str = "2pl",
                        n_clients: int = DEFAULT_CLIENTS,
                        txns_per_client: int = DEFAULT_TXNS_PER_CLIENT,
                        seed: int = 42) -> ContentionResult:
    """Run one seeded logical workload under one CC mode.

    Deterministic: the stream is a pure function of
    ``(scale, skew, n_clients, txns_per_client, seed)`` and both
    executors are sequential interleavers, so results are bit-identical
    across processes and platforms.
    """
    from .tpcc import TpccConfig  # late import: tpcc imports this module

    validate_cc_mode(cc_mode)
    skew = as_skew(skew)
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if txns_per_client < 1:
        raise ValueError("txns_per_client must be >= 1")
    cfg = TpccConfig.from_scale(scale)
    stream = _TxnStream(cfg.warehouses, cfg.districts_per_wh,
                        cfg.customers_per_district, cfg.items, skew, seed)
    txns = stream.generate(n_clients, txns_per_client)
    result = ContentionResult(cc_mode=cc_mode, skew=skew,
                              n_clients=n_clients,
                              txns_per_client=txns_per_client, seed=seed)
    if cc_mode == "2pl":
        _run_2pl(txns, n_clients, result)
    else:
        _run_partitioned(txns, result)
    return result
