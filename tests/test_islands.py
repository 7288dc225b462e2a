"""Behavioral tests for hardware-islands machines: remote-traffic
counters per placement, pinned client assignment, the island-aware
model terms, the placement sweep + telemetry, and the islands figure."""

import pytest

from repro.core import telemetry as tel
from repro.core.experiment import Experiment
from repro.core.sweeps import islands_sweep, islands_text
from repro.model.analytical import (
    Signature,
    StallPoint,
    cross_island_fraction,
    predict,
)
from repro.simulator.configs import fc_cmp
from repro.simulator.machine import Machine
from repro.simulator.topology import PLACEMENTS, IslandTopology
from repro.simulator.trace import TraceBuilder, Workload

SCALE = 0.02
TOPO = IslandTopology(n_sockets=2)


def make_trace(name, n_events=300, footprint_lines=2048, seed=1):
    import random
    rng = random.Random(seed)
    tb = TraceBuilder(name, ilp=2.0, branch_mpki=2.0, ilp_inorder=1.2)
    rid = tb.register_code("mod", 0x10_0000, 32)
    base = 0x4000_0000
    for i in range(n_events):
        addr = base + rng.randrange(footprint_lines) * 64
        tb.event(30, addr, 1 if i % 5 == 0 else 0, rid)
    return tb.build()


def run_placement(placement, n_sockets=2):
    topo = IslandTopology(n_sockets=n_sockets) if n_sockets > 1 else None
    m = Machine(fc_cmp(n_cores=4, l2_nominal_mb=1.0, scale=1.0,
                       topology=topo))
    w = Workload("synthetic",
                 [make_trace(f"c{i}", seed=i) for i in range(4)],
                 kind="dss")
    return m.run(w, measure_cycles=30_000, placement=placement)


class TestRemoteCounters:
    def test_single_socket_has_no_remote_traffic(self):
        r = run_placement("shared-everything", n_sockets=1)
        assert r.hier_stats.remote_accesses == 0
        assert r.hier_stats.remote_l1x == 0
        assert r.hier_stats.remote_extra_cycles == 0

    def test_shared_everything_pays_remote_traffic(self):
        r = run_placement("shared-everything")
        assert r.hier_stats.remote_accesses > 0
        assert r.hier_stats.remote_extra_cycles > 0

    def test_partitioned_data_is_home_local(self):
        r = run_placement("island-partitioned")
        # Pinned clients + per-island line tags: every data access is
        # home-local, so no cross-island dirty-line transfers either.
        assert r.hier_stats.remote_l1x == 0
        shared = run_placement("shared-everything")
        assert (r.hier_stats.remote_accesses
                < shared.hier_stats.remote_accesses)

    def test_remote_latency_costs_throughput(self):
        base = run_placement("shared-everything", n_sockets=1)
        isl = run_placement("shared-everything")
        assert isl.ipc < base.ipc


class TestPinnedAssignment:
    def test_partitioned_alternates_islands(self):
        m = Machine(fc_cmp(n_cores=4, topology=TOPO))
        traces = [make_trace(f"c{i}", seed=i) for i in range(4)]
        slots = m._assign(traces, "island-partitioned")
        # Client i is pinned to island i % 2 and fills that island's
        # cores first: cores {0,1} are island 0, {2,3} island 1.
        assert slots[0][0] == [traces[0]]
        assert slots[2][0] == [traces[1]]
        assert slots[1][0] == [traces[2]]
        assert slots[3][0] == [traces[3]]

    def test_partitioned_queues_within_island(self):
        m = Machine(fc_cmp(n_cores=4, topology=TOPO))
        traces = [make_trace(f"c{i}", seed=i) for i in range(6)]
        slots = m._assign(traces, "island-partitioned")
        # Clients 4 and 5 wrap onto the first core of their island.
        assert slots[0][0] == [traces[0], traces[4]]
        assert slots[2][0] == [traces[1], traces[5]]


def synthetic_signature(regime="saturated"):
    point = StallPoint(
        l2_nominal_mb=1.0, l2_fraction=0.2, mem_fraction=0.05,
        alpha_i=0.01, alpha_l2=0.8, alpha_mem=0.8, resid_cpi=0.1,
        queue_wait=1.0)
    return Signature(
        kind="oltp", camp="fc", regime=regime, n_contexts=1,
        comp_cpi=0.5, other_cpi=0.1, i_mem_cpi=0.05, apki=300.0,
        ipki_port=10.0, instructions=10_000, n_clients=4,
        points=(point,))


class TestIslandModel:
    def test_cross_island_fraction(self):
        assert cross_island_fraction(TOPO, "island-partitioned") == 0.0
        assert cross_island_fraction(TOPO, "shared-everything") == 0.5
        assert cross_island_fraction(
            IslandTopology(n_sockets=4), "hybrid") == 0.75

    def test_placement_orders_predictions(self):
        sig = synthetic_signature()
        plain = predict(sig, fc_cmp(n_cores=4, l2_nominal_mb=1.0))
        config = fc_cmp(n_cores=4, l2_nominal_mb=1.0, topology=TOPO)
        by_placement = {p: predict(sig, config, placement=p)
                        for p in PLACEMENTS}
        # Interleaved homes pay remote latency; partitioned does not.
        assert (by_placement["island-partitioned"].ipc
                > by_placement["shared-everything"].ipc)
        assert plain.ipc >= by_placement["shared-everything"].ipc

    def test_partitioned_latency_matches_single_socket(self):
        sig = synthetic_signature()
        plain = predict(sig, fc_cmp(n_cores=4, l2_nominal_mb=1.0))
        part = predict(sig, fc_cmp(n_cores=4, l2_nominal_mb=1.0,
                                   topology=TOPO),
                       placement="island-partitioned")
        assert part.l2_latency == plain.l2_latency

    def test_unsaturated_pays_remote_latency(self):
        sig = synthetic_signature("unsaturated")
        plain = predict(sig, fc_cmp(n_cores=4, l2_nominal_mb=1.0))
        shared = predict(sig, fc_cmp(n_cores=4, l2_nominal_mb=1.0,
                                     topology=TOPO))
        assert shared.response_cycles > plain.response_cycles

    def test_placement_requires_islands(self):
        with pytest.raises(ValueError):
            predict(synthetic_signature(), fc_cmp(n_cores=4),
                    placement="hybrid")


@pytest.fixture(scope="module")
def exp():
    return Experiment(scale=SCALE, measure_cycles=20_000, use_cache=False)


class TestIslandsSweep:
    def test_sweep_points_and_telemetry(self, exp, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        old_recorder = exp.telemetry
        exp.telemetry = tel.as_recorder(str(log))
        try:
            points = islands_sweep(
                exp, sockets=2, kinds=("oltp",), camps=("fc",),
                n_cores=4, l2_nominal_mb=2.0)
        finally:
            exp.telemetry = old_recorder
        assert [p.placement for p in points] == list(PLACEMENTS)
        for p in points:
            assert p.sockets == 2
            assert 0.0 < p.rel_ipc <= 1.5
            assert 0.0 <= p.remote_fraction <= 1.0
        by_placement = {p.placement: p for p in points}
        assert by_placement["island-partitioned"].result.hier_stats \
            .remote_l1x == 0

        events = tel.load_events(str(log))
        island_events = [e for e in events if e.get("ev") == "island_point"]
        assert len(island_events) == len(points)
        summary = tel.summarize(events)
        rows = summary["points"]["island_point"]
        assert len(rows) == len(points)
        assert {r["placement"] for r in rows} == set(PLACEMENTS)
        text = tel.format_summary(summary)
        assert "island_point" in text and "island-partitioned" in text

    def test_figure_smoke(self, exp):
        text = islands_text(exp, sockets=2, kinds=("oltp",))
        assert "Hardware islands" in text
        assert "island-partitioned" in text
        assert "retained" in text
