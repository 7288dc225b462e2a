"""Unit tests for the hardware-islands topology layer: eager
validation everywhere a topology or placement enters the system, and
the cache-key gating that keeps single-socket identities untouched."""

import pytest

from repro.core.parallel import RunSpec, config_key
from repro.simulator.configs import fc_cmp, fc_smp, lc_cmp
from repro.simulator.topology import (
    DEFAULT_PLACEMENT,
    PLACEMENTS,
    IslandTopology,
    as_topology,
    validate_placement,
)


class TestIslandTopology:
    def test_defaults_inactive(self):
        topo = IslandTopology()
        assert topo.n_sockets == 1
        assert not topo.active
        assert topo.describe() == ""

    def test_describe_active(self):
        assert IslandTopology(n_sockets=2).describe() == "2s-island"
        assert IslandTopology(n_sockets=4).describe() == "4s-island"

    @pytest.mark.parametrize("n", [0, -1, 3, 6, 2.0])
    def test_rejects_bad_socket_counts(self, n):
        with pytest.raises(ValueError):
            IslandTopology(n_sockets=n)

    @pytest.mark.parametrize("kw", [
        {"remote_l2_latency": 0.5},
        {"remote_l2_latency": float("nan")},
        {"remote_l2_latency": float("inf")},
        {"remote_mem_latency": 0.0},
        {"cores_per_island": 3},
        {"cores_per_island": 0},
    ])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            IslandTopology(n_sockets=2, **kw)

    def test_island_cores_divides_to_power_of_two(self):
        topo = IslandTopology(n_sockets=2)
        assert topo.island_cores(4) == 2
        assert topo.island_cores(8) == 4
        with pytest.raises(ValueError):
            topo.island_cores(6)  # 3 per island: not a power of two
        with pytest.raises(ValueError):
            topo.island_cores(3)  # does not divide

    def test_explicit_cores_per_island_must_tile(self):
        topo = IslandTopology(n_sockets=2, cores_per_island=2)
        assert topo.island_cores(4) == 2
        with pytest.raises(ValueError):
            topo.island_cores(8)

    def test_island_banks_divisibility(self):
        topo = IslandTopology(n_sockets=4)
        assert topo.island_banks(8) == 2
        with pytest.raises(ValueError):
            topo.island_banks(2)

    def test_key_is_stable_and_tagged(self):
        topo = IslandTopology(n_sockets=2)
        assert topo.key()[0] == "islands"
        assert topo.key() == IslandTopology(n_sockets=2).key()
        assert topo.key() != IslandTopology(n_sockets=4).key()

    def test_as_topology_coercions(self):
        assert as_topology(None) is None
        topo = IslandTopology(n_sockets=2)
        assert as_topology(topo) is topo
        assert as_topology(4) == IslandTopology(n_sockets=4)
        with pytest.raises(ValueError):
            as_topology("2")


class TestPlacementValidation:
    def test_known_placements(self):
        for p in PLACEMENTS:
            validate_placement(p)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            validate_placement("numa-aware")


class TestConfigValidation:
    def test_config_rejects_untileable_geometry(self):
        with pytest.raises(ValueError):
            fc_cmp(n_cores=3, topology=IslandTopology(n_sockets=2))
        with pytest.raises(ValueError):
            fc_cmp(n_cores=4, l2_banks=2,
                   topology=IslandTopology(n_sockets=4))

    def test_config_rejects_smp_islands(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(fc_smp(n_nodes=2),
                    topology=IslandTopology(n_sockets=2))

    def test_config_name_carries_island_suffix(self):
        named = fc_cmp(n_cores=4, topology=IslandTopology(n_sockets=2))
        assert "[2s-island]" in named.name
        assert "[" not in fc_cmp(n_cores=4).name

    def test_lc_builder_accepts_topology(self):
        config = lc_cmp(n_cores=4, topology=IslandTopology(n_sockets=2))
        assert config.islands


class TestRunSpecValidation:
    def test_placement_requires_islands(self):
        with pytest.raises(ValueError):
            RunSpec(fc_cmp(n_cores=2), "oltp", "saturated",
                    placement="island-partitioned")

    def test_topology_override_geometry_checked(self):
        with pytest.raises(ValueError):
            RunSpec(fc_cmp(n_cores=3), "oltp", "saturated",
                    topology=IslandTopology(n_sockets=2))

    def test_resolved_topology_precedence(self):
        config = fc_cmp(n_cores=4, topology=IslandTopology(n_sockets=2))
        spec = RunSpec(config, "oltp", "saturated")
        assert spec.resolved_topology == IslandTopology(n_sockets=2)
        override = RunSpec(fc_cmp(n_cores=4), "oltp", "saturated",
                           topology=IslandTopology(n_sockets=4))
        assert override.resolved_topology == IslandTopology(n_sockets=4)


class TestKeyGating:
    """Single-socket identities must be byte-identical to pre-island
    ones; island coordinates append only when they are active."""

    def test_config_key_unchanged_without_topology(self):
        config = fc_cmp(n_cores=2)
        key = config_key(config)
        assert not any(isinstance(part, tuple) and part
                       and part[0] == "islands" for part in key)

    def test_config_key_ignores_inactive_topology(self):
        plain = config_key(fc_cmp(n_cores=2))
        inactive = config_key(
            fc_cmp(n_cores=2, topology=IslandTopology(n_sockets=1)))
        # Inactive topologies leave no trace in the identity (the name
        # suffix is empty too, so the keys match outright).
        assert plain == inactive

    def test_config_key_appends_for_active_topology(self):
        active = config_key(
            fc_cmp(n_cores=2, topology=IslandTopology(n_sockets=2)))
        assert active[-1][0] == "islands"

    def test_runspec_key_gating(self):
        plain = RunSpec(fc_cmp(n_cores=2), "oltp", "saturated")
        plain_key = plain.key(0.02, 1000)
        assert plain_key[-1] != ("islands", DEFAULT_PLACEMENT)

        config = fc_cmp(n_cores=2, topology=IslandTopology(n_sockets=2))
        isl = RunSpec(config, "oltp", "saturated",
                      placement="island-partitioned")
        isl_key = isl.key(0.02, 1000)
        assert isl_key[-1] == ("islands", "island-partitioned")
        # Placement differentiates identities on the same config.
        hyb = RunSpec(config, "oltp", "saturated", placement="hybrid")
        assert hyb.key(0.02, 1000) != isl_key
