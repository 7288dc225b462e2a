"""Tests for the TPC-C-like workload: transaction semantics and traces."""

import random

import pytest

from repro.simulator.trace import FLAG_DEPENDENT, FLAG_WRITE
from repro.workloads.tpcc import TpccConfig, TpccDatabase, _nurand
from tests.btree_invariants import check_invariants
from tests.trace_events import flags, icounts

SCALE = 0.05


@pytest.fixture(scope="module")
def tpcc():
    return TpccDatabase(scale=SCALE, seed=9)


class TestConfig:
    def test_dimensions_scale(self):
        small = TpccConfig.from_scale(0.1)
        large = TpccConfig.from_scale(1.0)
        assert large.warehouses > small.warehouses
        assert large.items > small.items
        assert large.n_stock == large.warehouses * large.items

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            TpccConfig.from_scale(0)

    def test_floor_dimensions(self):
        tiny = TpccConfig.from_scale(0.001)
        assert tiny.warehouses >= 2
        assert tiny.items >= 1000


class TestNurand:
    def test_in_range(self):
        rng = random.Random(1)
        for _ in range(500):
            v = _nurand(rng, 1023, 0, 2999)
            assert 0 <= v <= 2999

    def test_skewed(self):
        """NURand concentrates mass relative to uniform."""
        from collections import Counter
        rng = random.Random(2)
        counts = Counter(_nurand(rng, 255, 0, 9999) for _ in range(20_000))
        top_share = sum(c for _, c in counts.most_common(500)) / 20_000
        assert top_share > 0.2  # uniform would give ~0.05


class TestSchemaPopulation:
    def test_tables_present(self, tpcc):
        for t in ("warehouse", "district", "customer", "stock", "item",
                  "orders", "order_line", "new_order", "history"):
            assert getattr(tpcc, t).schema.name == t

    def test_virtual_tables_sized(self, tpcc):
        assert tpcc.stock.n_rows == tpcc.cfg.n_stock
        assert tpcc.customer.n_rows == tpcc.cfg.n_customers
        assert tpcc.stock.is_virtual and tpcc.customer.is_virtual

    def test_stock_rows_consistent_with_key(self, tpcc):
        key = tpcc.stock_key(1, 7)
        row = tpcc.stock.get(key)
        assert row[0] == 1 and row[1] == 7

    def test_customer_rows_consistent_with_key(self, tpcc):
        key = tpcc.customer_key(1, 3, 11)
        row = tpcc.customer.get(key)
        assert (row[0], row[1], row[2]) == (1, 3, 11)

    def test_secondary_set_dwarfs_primary(self, tpcc):
        """Stock + customer (the cold stream) dwarf the hot item table.
        (At study scales >= 0.25 the cold set also exceeds 3x the largest
        cache; at this tiny test scale the dimension floors dominate, so
        assert the ratio instead.)"""
        cold = tpcc.stock.n_pages + tpcc.customer.n_pages
        assert cold > 8 * tpcc.item.n_pages

    def test_secondary_set_exceeds_caches_at_study_scale(self):
        cfg = TpccConfig.from_scale(0.25)
        cold_bytes = cfg.n_stock * 72 + cfg.n_customers * 96
        assert cold_bytes > 3 * 26 * 1024 * 1024 * 0.25


class TestTransactions:
    def test_neworder_advances_district_counter(self, tpcc):
        sess = tpcc.db.session("t-no", traced=False)
        rng = random.Random(3)
        d_rows_before = [tpcc.district.get(i)[2]
                         for i in range(tpcc.district.n_rows)]
        tpcc.tx_neworder(sess, rng, home_w=0)
        d_rows_after = [tpcc.district.get(i)[2]
                        for i in range(tpcc.district.n_rows)]
        assert sum(d_rows_after) == sum(d_rows_before) + 1

    def test_neworder_writes_order_and_lines(self, tpcc):
        sess = tpcc.db.session("t-no2", traced=False)
        rng = random.Random(4)
        before_orders = tpcc.orders.n_rows
        before_lines = tpcc.order_line.n_rows
        tpcc.tx_neworder(sess, rng, home_w=1)
        assert tpcc.orders.n_rows == before_orders + 1
        o = tpcc.orders.get(before_orders)
        assert tpcc.order_line.n_rows - before_lines == o[6]  # ol_cnt

    def test_payment_updates_balances(self, tpcc):
        sess = tpcc.db.session("t-pay", traced=False)
        rng = random.Random(5)
        w_before = tpcc.warehouse.get(0)[1]
        h_before = tpcc.history.n_rows
        tpcc.tx_payment(sess, rng, home_w=0)
        assert tpcc.warehouse.get(0)[1] > w_before
        assert tpcc.history.n_rows == h_before + 1

    def test_delivery_drains_new_order_queue(self, tpcc):
        sess = tpcc.db.session("t-del", traced=False)
        rng = random.Random(6)
        for _ in range(3):
            tpcc.tx_neworder(sess, rng, home_w=0)
        def pending(w):
            return sum(1 for (kw, _, _), _ in tpcc.new_order_idx.items()
                       if kw == w)
        before = pending(0)
        assert before >= 3
        tpcc.tx_delivery(sess, rng, home_w=0)
        after = pending(0)
        assert after < before
        check_invariants(tpcc.new_order_idx)

    def test_delivery_takes_oldest_order_first(self, tpcc):
        sess = tpcc.db.session("t-del2", traced=False)
        rng = random.Random(16)
        tpcc.tx_neworder(sess, rng, home_w=1)
        keys = [k for k in (k for k, _ in tpcc.new_order_idx.items())
                if k[0] == 1]
        oldest = min(keys)
        tpcc.tx_delivery(sess, rng, home_w=1)
        remaining = {k for k, _ in tpcc.new_order_idx.items() if k[0] == 1}
        assert oldest not in remaining

    def test_stocklevel_and_orderstatus_read_only(self, tpcc):
        sess = tpcc.db.session("t-ro", traced=False)
        rng = random.Random(7)
        tpcc.tx_neworder(sess, rng, home_w=0)
        orders_before = tpcc.orders.n_rows
        log_before = tpcc.db.txns.log.bytes_written
        tpcc.tx_stocklevel(sess, rng, home_w=0)
        tpcc.tx_orderstatus(sess, rng, home_w=0)
        assert tpcc.orders.n_rows == orders_before
        # Only the commit records hit the log.
        assert tpcc.db.txns.log.bytes_written - log_before == 2 * 32

    def test_every_transaction_commits(self, tpcc):
        committed_before = tpcc.db.txns.committed
        tpcc.run_client(90, 10)
        assert tpcc.db.txns.committed >= committed_before + 10


class TestTraces:
    def test_client_trace_shape(self):
        tpcc = TpccDatabase(scale=SCALE, seed=1)
        tr = tpcc.run_client(0, 15)
        assert len(tr) > 500
        dep = sum(1 for f in flags(tr) if f & FLAG_DEPENDENT) / len(tr)
        wr = sum(1 for f in flags(tr) if f & FLAG_WRITE) / len(tr)
        assert 0.35 <= dep <= 0.8   # index/lock-heavy pointer chasing
        assert 0.15 <= wr <= 0.6    # update-heavy
        assert len(tr.footprints) >= 8  # many code modules (big I-footprint)

    def test_traces_deterministic(self):
        a = TpccDatabase(scale=SCALE, seed=2).run_client(3, 10)
        b = TpccDatabase(scale=SCALE, seed=2).run_client(3, 10)
        assert list(a.addrs) == list(b.addrs)
        assert icounts(a) == icounts(b)
        assert flags(a) == flags(b)

    def test_clients_differ(self):
        tpcc = TpccDatabase(scale=SCALE, seed=2)
        a = tpcc.run_client(1, 10)
        b = tpcc.run_client(2, 10)
        assert list(a.addrs) != list(b.addrs)

    def test_clients_share_hot_lines(self):
        """Different clients of one warehouse touch common hot lines (the
        sharing that drives Figure 7's coherence traffic)."""
        tpcc = TpccDatabase(scale=SCALE, seed=2)
        w = tpcc.cfg.warehouses
        a = tpcc.run_client(10, 12)   # same home warehouse: 10 % w
        b = tpcc.run_client(10 + w, 12)
        lines_a = {addr >> 6 for addr in a.addrs}
        lines_b = {addr >> 6 for addr in b.addrs}
        assert len(lines_a & lines_b) > 50
