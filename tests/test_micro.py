"""Tests for the DBmbench-style microbenchmarks."""

import pytest

from repro.simulator.configs import fc_cmp
from repro.simulator.machine import Machine
from repro.workloads.micro import MicroDatabase, micro_idx, micro_ss
from repro.workloads.profile import profile_trace


class TestGenerators:
    def test_validation(self):
        with pytest.raises(ValueError):
            MicroDatabase(n_rows=0)
        with pytest.raises(ValueError):
            micro_ss(selectivity=0)
        with pytest.raises(ValueError):
            micro_idx(update_fraction=2.0)

    def test_deterministic(self):
        a = micro_ss(n_rows=2000)
        b = micro_ss(n_rows=2000)
        assert list(a.traces[0].addrs) == list(b.traces[0].addrs)

    def test_uss_profiles_like_dss(self):
        p = profile_trace(micro_ss(n_rows=3000).traces[0])
        assert p.stream > 0.4          # streaming scan refs
        assert p.write < 0.1           # read-only
        assert p.dependent < 0.7

    def test_uidx_profiles_like_oltp(self):
        p = profile_trace(micro_idx(n_probes=400, n_rows=50_000).traces[0])
        assert p.dependent > 0.5       # index descents + row chases
        assert p.write > 0.15          # updates + log
        assert p.stream < 0.05


class TestProxiesBehaveLikeOriginals:
    """The DBmbench claim: the proxies reproduce the big workloads'
    microarchitectural contrast on the same machine."""

    @pytest.mark.slow
    def test_uss_streams_cheaper_than_uidx_chases(self):
        """Per data reference, the fat core pays far less for the scan
        proxy (streamed misses) than for the index proxy (dependent
        chases) — the DSS/OLTP contrast in miniature."""
        cost = {}
        for wl in (micro_ss(n_rows=12_000), micro_idx(n_probes=1500)):
            machine = Machine(fc_cmp(l2_nominal_mb=4, scale=0.25))
            r = machine.run(wl, mode="response", warm_fraction=0.3)
            cost[wl.name] = (r.response_cycles
                             / max(1, r.hier_stats.data_accesses))
        assert cost["uSS"] < 0.75 * cost["uIDX"]
