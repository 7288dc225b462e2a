"""Transparency guarantees of the islands layer: a single-socket
machine is bit-identical to the pre-island simulator, the default
placement's client assignment matches the global round-robin slot for
slot, and pre-island ``machine-result-v1`` documents still load."""

import json
import os

import pytest

from repro.core.experiment import Experiment
from repro.simulator.configs import fc_cmp, lc_cmp
from repro.simulator.machine import Machine, MachineResult
from repro.simulator.topology import IslandTopology
from repro.workloads.driver import workload_for

SCALE = 0.02
FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "machine_result_v1.json")

#: The four (kind, regime) cells the study measures.
CELLS = [("oltp", "saturated"), ("oltp", "unsaturated"),
         ("dss", "saturated"), ("dss", "unsaturated")]


def _strip_config_name(doc):
    # An explicit 1-socket topology names the config identically (the
    # island suffix is empty), but drop the name anyway so the check
    # reads as "every measured field", not "every label".
    doc = dict(doc)
    doc.pop("config_name", None)
    return doc


class TestSingleSocketTransparency:
    @pytest.mark.parametrize("kind,regime", CELLS)
    def test_explicit_one_socket_topology_is_identity(self, kind, regime):
        """A MachineConfig carrying IslandTopology(n_sockets=1) must
        produce field-for-field identical results to one carrying no
        topology at all, across all four (kind, regime) cells."""
        exp = Experiment(scale=SCALE, measure_cycles=20_000,
                         use_cache=False)
        workload = workload_for(kind, regime, exp.scale)
        base = Machine(fc_cmp(n_cores=2, l2_nominal_mb=2.0,
                              scale=SCALE))
        topo = Machine(fc_cmp(n_cores=2, l2_nominal_mb=2.0, scale=SCALE,
                              topology=IslandTopology(n_sockets=1)))
        mode = "response" if regime == "unsaturated" else "throughput"
        r_base = base.run(workload, mode=mode, measure_cycles=20_000)
        r_topo = topo.run(workload, mode=mode, measure_cycles=20_000)
        assert (_strip_config_name(r_base.to_dict())
                == _strip_config_name(r_topo.to_dict()))

    def test_lean_camp_transparency(self):
        exp = Experiment(scale=SCALE, measure_cycles=20_000,
                         use_cache=False)
        workload = workload_for("oltp", "saturated", exp.scale)
        r_base = Machine(lc_cmp(n_cores=2, l2_nominal_mb=2.0,
                                scale=SCALE)).run(
            workload, measure_cycles=20_000)
        r_topo = Machine(lc_cmp(n_cores=2, l2_nominal_mb=2.0, scale=SCALE,
                                topology=IslandTopology(n_sockets=1))).run(
            workload, measure_cycles=20_000)
        assert (_strip_config_name(r_base.to_dict())
                == _strip_config_name(r_topo.to_dict()))

    def test_default_placement_assignment_parity(self):
        """shared-everything on an islands machine places clients in
        exactly the pre-island global round-robin slots."""
        exp = Experiment(scale=SCALE, use_cache=False)
        traces = workload_for("oltp", "saturated", exp.scale).traces
        plain = Machine(fc_cmp(n_cores=4, scale=SCALE))
        isl = Machine(fc_cmp(n_cores=4, scale=SCALE,
                             topology=IslandTopology(n_sockets=2)))
        assert (plain._assign(traces)
                == isl._assign(traces, "shared-everything"))


class TestResultFormatCompatibility:
    def test_v1_fixture_loads_with_default_island_counters(self):
        """A committed pre-island document (no island counters in
        ``hier_stats``) must load, with the counters at zero."""
        with open(FIXTURE) as f:
            doc = json.load(f)
        for name in ("remote_accesses", "remote_l1x",
                     "remote_extra_cycles"):
            assert name not in doc["hier_stats"]
        result = MachineResult.from_dict(doc)
        assert result.hier_stats.remote_accesses == 0
        assert result.hier_stats.remote_l1x == 0
        assert result.hier_stats.remote_extra_cycles == 0
        assert result.ipc == doc["ipc"]
        # And it round-trips into a current-format document.
        redoc = result.to_dict()
        assert redoc["hier_stats"]["remote_accesses"] == 0
        assert MachineResult.from_dict(redoc).ipc == result.ipc

    def test_v1_fixture_still_requires_core_counters(self):
        with open(FIXTURE) as f:
            doc = json.load(f)
        broken = json.loads(json.dumps(doc))
        del broken["hier_stats"]["data_level_counts"]
        with pytest.raises(ValueError):
            MachineResult.from_dict(broken)
