"""Contention × islands: skewed TPC-C on an island-partitioned chip.

``repro sweep`` runs the contention grid and the islands grid apart, and
rejects a flag set that names both, so this pairing is driven through
``RunSpec`` directly.  A Zipf-skewed TPC-C (``theta=0.9``) under each
concurrency-control mode runs on a 2-socket lean-camp chip with every
client pinned to its island.  The results must not depend on where they
were computed (serial, a process pool, a fresh interpreter under another
``PYTHONHASHSEED``), and each must account for its window: per core,
busy plus idle is the window, remote accesses are a subset of all
accesses, and lock-wait is never negative.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.parallel import RunSpec, run_specs
from repro.simulator.configs import lc_cmp
from repro.simulator.topology import IslandTopology
from repro.workloads.contention import SkewSpec

SCALE = 0.05
CYCLES = 50_000

#: Runs pickled ``(specs, scale)`` from stdin in a fresh interpreter and
#: prints the results' documents.
_RUN_SNIPPET = """
import json, pickle, sys
from repro.core.parallel import run_specs
specs, scale = pickle.load(sys.stdin.buffer)
print(json.dumps([r.to_dict() for r in run_specs(specs, scale)],
                 sort_keys=True))
"""


def _specs():
    return [RunSpec(lc_cmp(l2_nominal_mb=4.0, scale=SCALE), "oltp",
                    skew=SkewSpec(theta=0.9), cc_mode=cc_mode,
                    topology=IslandTopology(n_sockets=2),
                    placement="island-partitioned", measure_cycles=CYCLES)
            for cc_mode in ("2pl", "partitioned")]


def _documents(results) -> str:
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


@pytest.fixture(scope="module")
def serial():
    return run_specs(_specs(), SCALE)


@pytest.mark.slow
def test_pool_matches_serial(serial):
    pooled = run_specs(_specs(), SCALE, jobs=2)
    assert _documents(pooled) == _documents(serial)


@pytest.mark.slow
def test_identical_across_hash_seeds(serial):
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "src")
    payload = pickle.dumps((_specs(), SCALE))
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in (env.get("PYTHONPATH"),) if p])
        proc = subprocess.run([sys.executable, "-c", _RUN_SNIPPET],
                              env=env, input=payload, capture_output=True,
                              check=True)
        assert proc.stdout.decode().strip() == _documents(serial)


@pytest.mark.slow
def test_every_window_is_accounted(serial):
    for result in serial:
        assert result.per_core, "expected per-core breakdowns"
        for breakdown in result.per_core:
            assert breakdown.busy + breakdown.idle == pytest.approx(
                CYCLES, rel=1e-9)
            assert breakdown.lock_wait >= 0
        assert result.breakdown.lock_wait >= 0
        hs = result.hier_stats
        assert 0 < hs.remote_accesses <= hs.data_accesses + hs.instr_blocks
