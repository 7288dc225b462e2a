"""TPC-C-like OLTP workload: schema, data, and the five transactions.

Faithful to the benchmark's access-pattern structure — which is what the
characterization measures — while scaled by the study-wide ``scale`` knob:

- 100 warehouses nominal (the paper's configuration), 100k items, 10
  districts per warehouse, 3000 customers per district;
- the big relations (stock, customer) are *virtual* heap files with
  computed dense indexes (DESIGN.md §1), hundreds of MB of cold secondary
  working set in the address space;
- the hot primary working set (item table and index, index upper levels,
  district/warehouse rows, log buffer, lock table, code) lands at ~10 MB
  nominal — captured between the paper's 8 MB and 16 MB cache points;
- NURand skew on item and customer choice, 1% remote stock per order line
  and 15% remote payments for cross-warehouse sharing (the coherence
  traffic of Fig. 7);
- standard transaction mix: 45% NewOrder, 43% Payment, 4% each
  OrderStatus, Delivery, StockLevel.

OrderStatus looks customers up by id only (TPC-C's 60/40 id/last-name
split would need a 3M-entry name index the virtual customer table elides);
the substitution preserves the transaction's index-descent + row-fetch
shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from ..db import Database, LockMode, Schema
from ..db.computed_index import ComputedDenseIndex
from ..db.btree import BTreeIndex
from ..db import costs
from ..db.txn import PartitionLockManager, validate_cc_mode
from ..db.types import char, date, float64, int64
from .contention import SkewSpec, ZipfGenerator, as_skew

#: Workload-level microarchitectural properties (Section 2 taxonomy):
#: OLTP's dependence chains cap OoO gains, so the camps' achieved ILP is
#: close; it mispredicts often.
OLTP_ILP = 2.0
OLTP_ILP_INORDER = 1.0
OLTP_BRANCH_MPKI = 9.0

#: Standard TPC-C transaction mix (cumulative weights).
_MIX = (
    ("neworder", 0.45),
    ("payment", 0.88),
    ("orderstatus", 0.92),
    ("delivery", 0.96),
    ("stocklevel", 1.00),
)


@dataclass(frozen=True)
class TpccConfig:
    """Scaled TPC-C dimensions.

    ``from_scale`` derives every dimension from the study-wide scale
    factor so workload footprint and cache capacity shrink together.
    """

    warehouses: int
    items: int
    districts_per_wh: int
    customers_per_district: int

    @classmethod
    def from_scale(cls, scale: float) -> "TpccConfig":
        if scale <= 0:
            raise ValueError("scale must be positive")
        return cls(
            warehouses=max(2, round(100 * scale)),
            items=max(1000, round(30_000 * scale)),
            districts_per_wh=10,
            customers_per_district=max(60, round(3000 * scale)),
        )

    @property
    def n_stock(self) -> int:
        """Stock rows = warehouses x items."""
        return self.warehouses * self.items

    @property
    def n_customers(self) -> int:
        """Total customer rows."""
        return (self.warehouses * self.districts_per_wh
                * self.customers_per_district)


def _nurand(rng: random.Random, a: int, x: int, y: int) -> int:
    """TPC-C NURand(A, x, y): non-uniform random with a hot subset."""
    c = 42  # constant per the spec's C-load rules; fixed for determinism
    return ((((rng.randrange(0, a + 1) | rng.randrange(x, y + 1)) + c)
             % (y - x + 1)) + x)


# Row sources of the virtual tables.  Each reads only the config it is
# bound to with functools.partial, never the TpccDatabase: the heap file
# holds its generator, so one bound to the database would close a
# reference cycle through it (see HeapFile).

def _customer_row(cfg: TpccConfig, rid: int) -> tuple:
    c = rid % cfg.customers_per_district
    d = (rid // cfg.customers_per_district) % cfg.districts_per_wh
    w = rid // (cfg.customers_per_district * cfg.districts_per_wh)
    balance = -10.0 + (rid * 2654435761 % 1000) / 10.0
    return (w, d, c, balance, 10.0, 1, "cdata")


def _stock_row(items: int, rid: int) -> tuple:
    w, i = divmod(rid, items)
    qty = 10 + (rid * 2654435761 % 91)
    return (w, i, qty, 0.0, 0, 0, "sdata")


class TpccDatabase:
    """A populated TPC-C-like database instance.

    Args:
        scale: Study-wide scale factor.
        seed: Base seed for data generation.
        skew: Optional :class:`SkewSpec` contention knobs.  None (or the
            inert default spec) keeps the benchmark's stock
            distributions — and the emitted traces — bit-identical.
        cc_mode: ``"2pl"`` (row locks through the shared lock table) or
            ``"partitioned"`` (whole-warehouse claims through
            :class:`PartitionLockManager` — per-partition lines instead
            of shared hash buckets, so the lock-traffic coherence
            profile changes with the camp).
    """

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 skew: SkewSpec | None = None, cc_mode: str = "2pl"):
        self.cfg = TpccConfig.from_scale(scale)
        self.scale = scale
        self.seed = seed
        self.skew = as_skew(skew)
        self.cc_mode = validate_cc_mode(cc_mode)
        self.db = Database("tpcc")
        #: Popular-item subset size per warehouse (see tx_neworder).
        self._popular_items = max(120, round(500 * scale))
        self._build_schema()
        self._populate()
        self._build_indexes()
        # Skew machinery and the partition lock region exist only when
        # opted into, so default instances allocate (and draw) exactly
        # what they always did.
        theta = self.skew.theta
        self._item_zipf = (ZipfGenerator(self.cfg.items, theta)
                           if theta > 0 else None)
        self._cust_zipf = (ZipfGenerator(self.cfg.customers_per_district,
                                         theta) if theta > 0 else None)
        self._stock_cross = (0.01 if self.skew.cross_rate is None
                             else self.skew.cross_rate)
        self._pay_cross = (0.15 if self.skew.cross_rate is None
                           else self.skew.cross_rate)
        self._partition_locks = (
            PartitionLockManager(self.db.space, self.cfg.warehouses)
            if self.cc_mode == "partitioned" else None)
        # Per-customer most recent order rid for OrderStatus.
        self._last_order: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Build                                                               #
    # ------------------------------------------------------------------ #

    def _build_schema(self) -> None:
        cat = self.db.catalog
        cfg = self.cfg
        self.warehouse = cat.create_table(Schema("warehouse", [
            int64("w_id"), float64("w_ytd"), char("w_pad", 48),
        ]))
        self.district = cat.create_table(Schema("district", [
            int64("d_w_id"), int64("d_id"), int64("d_next_o_id"),
            float64("d_ytd"), char("d_pad", 40),
        ]))
        self.item = cat.create_table(Schema("item", [
            int64("i_id"), float64("i_price"), char("i_name", 12),
            char("i_data", 12),
        ]))
        # Virtual big tables: rows derived from the rid.
        self.customer = cat.create_table(
            Schema("customer", [
                int64("c_w_id"), int64("c_d_id"), int64("c_id"),
                float64("c_balance"), float64("c_ytd_payment"),
                int64("c_payment_cnt"), char("c_data", 48),
            ]),
            n_virtual_rows=cfg.n_customers,
            row_source=partial(_customer_row, cfg),
        )
        self.stock = cat.create_table(
            Schema("stock", [
                int64("s_w_id"), int64("s_i_id"), int64("s_quantity"),
                float64("s_ytd"), int64("s_order_cnt"),
                int64("s_remote_cnt"), char("s_data", 24),
            ]),
            n_virtual_rows=cfg.n_stock,
            row_source=partial(_stock_row, cfg.items),
        )
        self.orders = cat.create_table(Schema("orders", [
            int64("o_id"), int64("o_w_id"), int64("o_d_id"),
            int64("o_c_id"), date("o_entry_d"), int64("o_carrier_id"),
            int64("o_ol_cnt"),
        ]))
        self.order_line = cat.create_table(Schema("order_line", [
            int64("ol_o_id"), int64("ol_w_id"), int64("ol_d_id"),
            int64("ol_number"), int64("ol_i_id"), int64("ol_quantity"),
            float64("ol_amount"), date("ol_delivery_d"),
        ]))
        self.new_order = cat.create_table(Schema("new_order", [
            int64("no_o_id"), int64("no_w_id"), int64("no_d_id"),
        ]))
        self.history = cat.create_table(Schema("history", [
            int64("h_c_id"), int64("h_w_id"), int64("h_d_id"),
            float64("h_amount"), char("h_data", 24),
        ]))

    def _populate(self) -> None:
        rng = random.Random(self.seed)
        cfg = self.cfg
        for w in range(cfg.warehouses):
            self.warehouse.append((w, 300_000.0, "wpad"))
            for d in range(cfg.districts_per_wh):
                self.district.append((w, d, 1, 30_000.0, "dpad"))
        for i in range(cfg.items):
            self.item.append((i, 1.0 + rng.random() * 99.0, "iname", "idata"))

    def _build_indexes(self) -> None:
        space = self.db.space
        cfg = self.cfg
        self.item_idx = ComputedDenseIndex(space, "item_pk", cfg.items)
        self.stock_idx = ComputedDenseIndex(space, "stock_pk", cfg.n_stock)
        self.customer_idx = ComputedDenseIndex(
            space, "customer_pk", cfg.n_customers
        )
        # Orders, order lines and the new-order queue are inserted (and,
        # for new_order, deleted) at runtime: real B+-trees.
        self.orders_idx = BTreeIndex(space, "orders_pk", order=128)
        self.order_line_idx = BTreeIndex(space, "order_line_pk", order=128)
        self.new_order_idx = BTreeIndex(space, "new_order_pk", order=128)

    # ------------------------------------------------------------------ #
    # Key helpers                                                         #
    # ------------------------------------------------------------------ #

    def customer_key(self, w: int, d: int, c: int) -> int:
        """Dense customer key for (warehouse, district, customer)."""
        cfg = self.cfg
        return (w * cfg.districts_per_wh + d) * cfg.customers_per_district + c

    def stock_key(self, w: int, i: int) -> int:
        """Dense stock key for (warehouse, item)."""
        return w * self.cfg.items + i

    def district_rid(self, w: int, d: int) -> int:
        """District rid (populated in (w, d) order)."""
        return w * self.cfg.districts_per_wh + d

    # ------------------------------------------------------------------ #
    # Concurrency-control routing                                         #
    # ------------------------------------------------------------------ #

    def _begin(self, sess, home_w: int):
        """Open a transaction; partitioned mode claims the home warehouse."""
        txn = sess.begin()
        if self._partition_locks is not None:
            self._partition_locks.acquire(txn.txn_id, home_w, sess.tracer)
        return txn

    def _lock_row(self, txn, tracer, resource, partition: int) -> None:
        """One write-intent: a row lock (2PL) or a partition claim."""
        if self._partition_locks is not None:
            self._partition_locks.acquire(txn.txn_id, partition, tracer)
        else:
            txn.lock(resource, LockMode.EXCLUSIVE, tracer)

    def _commit(self, sess, txn) -> None:
        """Commit; partitioned mode releases its warehouse claims."""
        sess.commit(txn)
        if self._partition_locks is not None:
            self._partition_locks.release_all(txn.txn_id, sess.tracer)

    def _choose_customer(self, rng: random.Random) -> int:
        """District-local customer id: NURand, or Zipf when skewed."""
        if self._cust_zipf is not None:
            return self._cust_zipf.sample(rng)
        return _nurand(rng, 1023, 0, self.cfg.customers_per_district - 1)

    # ------------------------------------------------------------------ #
    # Traced row access helpers                                           #
    # ------------------------------------------------------------------ #

    def _read_row(self, sess, heap, rid: int, dependent: bool = True) -> tuple:
        tracer = sess.tracer
        page_no, _ = heap.locate(rid)
        self.db.pool.fetch(heap, page_no, tracer)
        tracer.enter("storage.heap")
        # Reading a record touches every line it spans: the first through
        # the record pointer (dependent), the rest sequentially.
        first = True
        for line_addr in heap.record_lines(rid):
            tracer.compute(costs.EMIT_TUPLE)
            tracer.data(line_addr, dependent=dependent and first)
            first = False
        return heap.get(rid)

    def _write_field(self, sess, heap, rid: int, col: int, value,
                     txn=None, log_bytes: int = 48) -> None:
        tracer = sess.tracer
        heap.set_field(rid, col, value)
        tracer.enter("storage.heap")
        tracer.compute(costs.EMIT_TUPLE)
        tracer.data(heap.field_addr(rid, col), write=True)
        if txn is not None:
            txn.log(log_bytes, tracer)

    def _insert_row(self, sess, heap, row: tuple, txn=None,
                    log_bytes: int = 64) -> int:
        tracer = sess.tracer
        rid = heap.append(row)
        page_no, _ = heap.locate(rid)
        self.db.pool.fetch(heap, page_no, tracer)
        tracer.enter("storage.heap")
        tracer.compute(costs.EMIT_TUPLE * 2)
        tracer.data(heap.record_addr(rid), write=True)
        if txn is not None:
            txn.log(log_bytes, tracer)
        return rid

    # ------------------------------------------------------------------ #
    # Transactions                                                        #
    # ------------------------------------------------------------------ #

    def tx_neworder(self, sess, rng: random.Random, home_w: int) -> None:
        """NewOrder: the 45% workhorse — order entry across ~10 items."""
        cfg = self.cfg
        tracer = sess.tracer
        tracer.enter("txn.neworder")
        tracer.compute(costs.QUERY_SETUP // 4)
        txn = self._begin(sess, home_w)
        d = rng.randrange(cfg.districts_per_wh)
        c = self._choose_customer(rng)
        # Warehouse tax read.
        self._read_row(sess, self.warehouse, home_w, dependent=False)
        # District: read + bump next_o_id (hot per-district write).
        self._lock_row(txn, tracer, ("district", home_w, d), home_w)
        d_rid = self.district_rid(home_w, d)
        d_row = self._read_row(sess, self.district, d_rid)
        o_id = d_row[2]
        self._write_field(sess, self.district, d_rid, 2, o_id + 1, txn)
        # Customer read (discount, credit).
        ckey = self.customer_key(home_w, d, c)
        crid = self.customer_idx.search(ckey, tracer)
        self._read_row(sess, self.customer, crid)
        # Order + new-order inserts.
        ol_cnt = rng.randint(5, 15)
        tracer.enter("txn.neworder")
        orid = self._insert_row(
            sess, self.orders, (o_id, home_w, d, c, 9000, -1, ol_cnt), txn
        )
        self.orders_idx.insert((home_w, d, o_id), orid, tracer)
        norid = self._insert_row(sess, self.new_order,
                                 (o_id, home_w, d), txn, log_bytes=24)
        self.new_order_idx.insert((home_w, d, o_id), norid, tracer)
        self._last_order[ckey] = orid
        # Order lines.
        for number in range(ol_cnt):
            tracer.enter("txn.neworder")
            # Retail skew: most order lines draw from the warehouse's
            # popular-item subset (reused across that warehouse's clients,
            # part of the primary working set); the rest are NURand over
            # the full catalog (the irreducible cold stream).
            if self._item_zipf is not None:
                # Opt-in Zipfian catalog: rank 0 hottest, shared across
                # every warehouse — contention rises with theta.
                i = self._item_zipf.sample(rng)
            elif rng.random() < 0.6:
                # Popular items are a contiguous catalog range per
                # warehouse (seasonal/promoted SKUs), so their stock rows
                # and index leaves stay dense — a genuinely small hot set.
                slot = rng.randrange(self._popular_items)
                i = (home_w * self._popular_items + slot) % cfg.items
            else:
                i = _nurand(rng, 8191, 0, cfg.items - 1)
            supply_w = home_w
            if cfg.warehouses > 1 and rng.random() < self._stock_cross:
                supply_w = rng.randrange(cfg.warehouses - 1)
                if supply_w >= home_w:
                    supply_w += 1
            # Item read (hot table).
            irid = self.item_idx.search(i, tracer)
            item_row = self._read_row(sess, self.item, irid)
            # Stock read-modify-write (cold table, row lock).
            skey = self.stock_key(supply_w, i)
            self._lock_row(txn, tracer, ("stock", skey), supply_w)
            srid = self.stock_idx.search(skey, tracer)
            s_row = self._read_row(sess, self.stock, srid)
            qty = s_row[2]
            new_qty = qty - (rng.randint(1, 10))
            if new_qty < 10:
                new_qty += 91
            self._write_field(sess, self.stock, srid, 2, new_qty, txn)
            amount = item_row[1] * (1 + number)
            olrid = self._insert_row(
                sess, self.order_line,
                (o_id, home_w, d, number, i, 5, amount, 0), txn,
            )
            self.order_line_idx.insert((home_w, d, o_id, number), olrid,
                                       tracer)
        self._commit(sess, txn)

    def tx_payment(self, sess, rng: random.Random, home_w: int) -> None:
        """Payment: warehouse/district YTD bumps — the hot shared writes."""
        cfg = self.cfg
        tracer = sess.tracer
        tracer.enter("txn.payment")
        tracer.compute(costs.QUERY_SETUP // 5)
        txn = self._begin(sess, home_w)
        d = rng.randrange(cfg.districts_per_wh)
        amount = 1.0 + rng.random() * 4999.0
        # 15% of payments are for a remote customer (cross-warehouse).
        c_w, c_d = home_w, d
        if cfg.warehouses > 1 and rng.random() < self._pay_cross:
            c_w = rng.randrange(cfg.warehouses - 1)
            if c_w >= home_w:
                c_w += 1
            c_d = rng.randrange(cfg.districts_per_wh)
        c = self._choose_customer(rng)
        # Warehouse YTD (every payment to this warehouse writes this row).
        self._lock_row(txn, tracer, ("warehouse", home_w), home_w)
        w_row = self._read_row(sess, self.warehouse, home_w)
        self._write_field(sess, self.warehouse, home_w, 1,
                          w_row[1] + amount, txn)
        # District YTD.
        self._lock_row(txn, tracer, ("district", home_w, d), home_w)
        d_rid = self.district_rid(home_w, d)
        d_row = self._read_row(sess, self.district, d_rid)
        self._write_field(sess, self.district, d_rid, 3,
                          d_row[3] + amount, txn)
        # Customer balance.
        ckey = self.customer_key(c_w, c_d, c)
        self._lock_row(txn, tracer, ("customer", ckey), c_w)
        crid = self.customer_idx.search(ckey, tracer)
        c_row = self._read_row(sess, self.customer, crid)
        self._write_field(sess, self.customer, crid, 3,
                          c_row[3] - amount, txn)
        self._write_field(sess, self.customer, crid, 4,
                          c_row[4] + amount, txn)
        # History insert.
        self._insert_row(sess, self.history,
                         (c, home_w, d, amount, "hist"), txn)
        self._commit(sess, txn)

    def tx_orderstatus(self, sess, rng: random.Random, home_w: int) -> None:
        """OrderStatus: read-only customer + last order + its lines."""
        cfg = self.cfg
        tracer = sess.tracer
        tracer.enter("txn.orderstatus")
        tracer.compute(costs.QUERY_SETUP // 5)
        txn = self._begin(sess, home_w)
        d = rng.randrange(cfg.districts_per_wh)
        c = self._choose_customer(rng)
        ckey = self.customer_key(home_w, d, c)
        crid = self.customer_idx.search(ckey, tracer)
        self._read_row(sess, self.customer, crid)
        orid = self._last_order.get(ckey)
        if orid is not None:
            o_row = self._read_row(sess, self.orders, orid)
            o_id, ol_cnt = o_row[0], o_row[6]
            for key, olrid in self.order_line_idx.range(
                (home_w, d, o_id, 0), (home_w, d, o_id + 1, 0), tracer
            ):
                self._read_row(sess, self.order_line, olrid)
        self._commit(sess, txn)

    def tx_delivery(self, sess, rng: random.Random, home_w: int) -> None:
        """Delivery: drain one pending order per district."""
        cfg = self.cfg
        tracer = sess.tracer
        tracer.enter("txn.delivery")
        tracer.compute(costs.QUERY_SETUP // 5)
        txn = self._begin(sess, home_w)
        carrier = rng.randint(1, 10)
        for d in range(cfg.districts_per_wh):
            # Oldest undelivered order: the minimum key in this district's
            # slice of the new-order index.
            oldest = next(
                self.new_order_idx.range((home_w, d, 0),
                                         (home_w, d + 1, -1), tracer),
                None,
            )
            if oldest is None:
                continue
            (_, _, o_id), norid = oldest
            self.new_order_idx.delete((home_w, d, o_id), tracer)
            no_row = self._read_row(sess, self.new_order, norid)
            found = self.orders_idx.search((home_w, d, o_id), tracer)
            if found is None:
                continue
            o_row = self._read_row(sess, self.orders, found)
            self._write_field(sess, self.orders, found, 5, carrier, txn)
            total = 0.0
            for key, olrid in self.order_line_idx.range(
                (home_w, d, o_id, 0), (home_w, d, o_id + 1, 0), tracer
            ):
                ol = self._read_row(sess, self.order_line, olrid)
                total += ol[6]
                self._write_field(sess, self.order_line, olrid, 7, 1, txn,
                                  log_bytes=32)
            ckey = self.customer_key(home_w, d, o_row[3])
            crid = self.customer_idx.search(ckey, tracer)
            c_row = self._read_row(sess, self.customer, crid)
            self._write_field(sess, self.customer, crid, 3,
                              c_row[3] + total, txn)
        self._commit(sess, txn)

    def tx_stocklevel(self, sess, rng: random.Random, home_w: int) -> None:
        """StockLevel: read-only scan of recent order lines' stock rows."""
        cfg = self.cfg
        tracer = sess.tracer
        tracer.enter("txn.stocklevel")
        tracer.compute(costs.QUERY_SETUP // 5)
        txn = self._begin(sess, home_w)
        d = rng.randrange(cfg.districts_per_wh)
        d_row = self._read_row(sess, self.district, self.district_rid(home_w, d))
        next_o = d_row[2]
        threshold = rng.randint(10, 20)
        low = 0
        for key, olrid in self.order_line_idx.range(
            (home_w, d, max(0, next_o - 20), 0), (home_w, d, next_o, 0),
            tracer,
        ):
            ol = self._read_row(sess, self.order_line, olrid)
            skey = self.stock_key(home_w, ol[4])
            srid = self.stock_idx.search(skey, tracer)
            s_row = self._read_row(sess, self.stock, srid)
            if s_row[2] < threshold:
                low += 1
        self._commit(sess, txn)

    # ------------------------------------------------------------------ #
    # Client driver                                                       #
    # ------------------------------------------------------------------ #

    def run_client(self, client_no: int, n_txns: int, seed: int | None = None):
        """Run one client's transaction stream; returns its Trace.

        The client's home warehouse is ``client_no % warehouses`` (several
        clients share a warehouse when clients exceed warehouses — the hot
        row sharing the coherence study needs).  With ``hot_warehouses``
        set, homes draw from the first N warehouses only, piling more
        clients onto each warehouse's hot rows.
        """
        rng = random.Random((self.seed if seed is None else seed) * 10_007
                            + client_no)
        sess = self.db.session(
            f"tpcc-c{client_no}", ilp=OLTP_ILP,
            branch_mpki=OLTP_BRANCH_MPKI, ilp_inorder=OLTP_ILP_INORDER,
        )
        pool = self.cfg.warehouses
        if self.skew.hot_warehouses is not None:
            pool = min(self.skew.hot_warehouses, pool)
        home_w = client_no % pool
        dispatch = {
            "neworder": self.tx_neworder,
            "payment": self.tx_payment,
            "orderstatus": self.tx_orderstatus,
            "delivery": self.tx_delivery,
            "stocklevel": self.tx_stocklevel,
        }
        for _ in range(n_txns):
            # Kernel context switch between transactions.
            sess.tracer.enter("rt.kernel")
            sess.tracer.compute(costs.CONTEXT_SWITCH)
            sess.tracer.data(self.db.txns.log.tail_addr, kernel=True)
            roll = rng.random()
            for name, cum in _MIX:
                if roll <= cum:
                    dispatch[name](sess, rng, home_w)
                    break
        return sess.finish()
