"""Non-fork pool workers adopt the parent's built bundles.

A fork-started pool worker inherits the parent's bundle registry
(``driver._BUILT``).  A spawn- or forkserver-started worker inherits
nothing, so ``run_specs`` starts it with an initializer that adopts the
parent's registry entries, keyed by trace-store key, for the sweep's
bundles (``parallel._adopt_worker_init`` -> ``driver.adopt_bundles``).

The spawn tests run a real spawn-started pool in a fresh interpreter
over a mixed batch (DSS, OLTP, one skewed TPC-C spec) and check that:

- every ``MachineResult`` field equals a serial in-process run;
- no worker re-ran the engine: the trace store, switched on only after
  the parent built its bundles, stays empty — a worker that missed
  adoption would have built and stored its bundle there;
- with a worker crash injected, the rebuilt pool's workers adopt too
  and the sweep still recovers bit-identically.

A non-fork pool spawns each worker inside ``submit``.  When a worker
dies during that spawn, the pool's manager thread closes the call queue
whose descriptors the spawn has just pickled, and the spawn fails with
``ValueError: bad value(s) in fds_to_keep``.  A stub pool replays that
sequence deterministically: the sweep must rebuild the broken pool, and
fall back to serial when the pool is not broken.
"""

import os
import pickle
import subprocess
import sys
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields

import pytest

from repro.core import parallel
from repro.core.parallel import RunSpec, run_specs
from repro.simulator.configs import fc_cmp, lc_cmp
from repro.workloads import driver
from repro.workloads.contention import SkewSpec

SCALE = 0.01
CYCLES = 5_000

#: Spawn-pool sweep in a fresh interpreter over the pickled specs on
#: stdin.  The parent builds every bundle *before* the trace store is
#: switched on, so the only way an entry can land in the store is a
#: worker building a bundle itself.
_SPAWN_SCRIPT = """
import multiprocessing, os, pickle, sys
from repro.core.parallel import run_specs
from repro.workloads.driver import workload_for
specs = pickle.load(sys.stdin.buffer)
multiprocessing.set_start_method("spawn")
for s in specs:
    workload_for(s.kind, s.regime, {scale}, n_clients=s.n_clients,
                 skew=s.skew, cc_mode=s.cc_mode)
os.environ["REPRO_TRACE_DIR"] = sys.argv[1]
results = run_specs(specs, {scale}, {cycles}, jobs=2, retries=3,
                    backoff=0.0)
sys.stdout.buffer.write(pickle.dumps(
    (multiprocessing.get_start_method(), results)))
""".format(scale=SCALE, cycles=CYCLES)


def _specs() -> list[RunSpec]:
    return [
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=1.0, scale=SCALE), "dss"),
        RunSpec(lc_cmp(n_cores=4, l2_nominal_mb=4.0, scale=SCALE), "dss"),
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=2.0, scale=SCALE), "oltp"),
        RunSpec(fc_cmp(n_cores=4, l2_nominal_mb=2.0, scale=SCALE), "oltp",
                skew=SkewSpec(theta=0.9, hot_warehouses=1)),
    ]


@pytest.fixture
def clean_env(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_RETRIES", "REPRO_TIMEOUT",
                "REPRO_BACKOFF", "REPRO_FAIL_FAST", "REPRO_JOBS",
                "REPRO_TELEMETRY", "REPRO_TRACE_DIR"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.fixture(scope="module")
def serial():
    mp = pytest.MonkeyPatch()
    mp.delenv("REPRO_FAULTS", raising=False)
    mp.delenv("REPRO_TRACE_DIR", raising=False)
    try:
        return run_specs(_specs(), SCALE, CYCLES, jobs=1)
    finally:
        mp.undo()


def _spawn_sweep(store_dir, faults: str | None):
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FAULTS", "REPRO_TRACE_DIR",
                        "REPRO_TELEMETRY")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in (env.get("PYTHONPATH"),) if p])
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_SCRIPT, str(store_dir)], env=env,
        input=pickle.dumps(_specs()), capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return pickle.loads(proc.stdout)


def _assert_identical(serial, pooled) -> None:
    assert len(serial) == len(pooled)
    for i, (a, b) in enumerate(zip(serial, pooled)):
        for f in fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), (
                f"field {f.name!r} diverged at spec {i}")
        assert a == b


def _store_entries(store_dir) -> list[str]:
    return [name for _, _, files in os.walk(store_dir) for name in files]


@pytest.mark.slow
@pytest.mark.parametrize("faults", [None, "crash@1"],
                         ids=["clean", "crash"])
def test_spawn_pool_matches_serial(tmp_path, serial, faults):
    store_dir = tmp_path / "traces"
    start_method, pooled = _spawn_sweep(store_dir, faults)
    assert start_method == "spawn"
    _assert_identical(serial, pooled)
    assert _store_entries(store_dir) == [], (
        "a spawn worker rebuilt a bundle instead of adopting the parent's")


def test_adoption_round_trip_replays_bit_identical(clean_env, serial):
    """The initializer's path, in-process: bundles pickled as a spawn
    pool ships them, adopted into a cold registry, then replayed."""
    specs = _specs()
    bundles = parallel.prebuild_workloads(specs, SCALE)
    shipped = pickle.loads(pickle.dumps(driver.built_bundles(bundles)))
    # dss, oltp and the contended oltp bundle all ship.
    assert len(shipped) == len(bundles) == 3
    driver.clear_workload_caches()
    engines = []

    def counting(database):
        def build(*args, **kwargs):
            engines.append(database.__name__)
            return database(*args, **kwargs)
        return build

    for name in ("TpccDatabase", "TpchDatabase"):
        clean_env.setattr(driver, name, counting(getattr(driver, name)))
    try:
        parallel._adopt_worker_init(shipped)
        adopted = driver.built_bundles(shipped.values())
        assert adopted == shipped
        assert all(adopted[k] is shipped[k] for k in shipped)
        replayed = [parallel.execute(s, SCALE, CYCLES) for s in specs]
        # Every run was served by an adopted bundle: no engine ran.
        assert engines == []
    finally:
        driver.clear_workload_caches()
    _assert_identical(serial, replayed)


def test_initializer_never_raises():
    # An initializer exception would break every pool built with it.
    parallel._adopt_worker_init(object())


@pytest.mark.parametrize("broken", [True, False], ids=["broken", "healthy"])
def test_spawn_failure_in_submit(clean_env, serial, broken):
    pools = []

    class RacedPool:
        """The first pool's second ``submit`` fails its spawn; with
        ``broken`` its first worker died meanwhile, as in the race.
        Later pools run their specs in-process.  Each pool records the
        (spec index, attempt) of every submit."""

        def __init__(self, max_workers, **kwargs):
            self.racy = not pools
            self.submitted = []
            self.futures = []
            self._broken = False
            pools.append(self)

        def submit(self, fn, payload):
            self.submitted.append((payload[3], payload[4]))
            fut = futures.Future()
            if self.racy and self.futures:
                if broken:
                    self.futures[0].set_exception(
                        BrokenProcessPool("worker died"))
                    self._broken = "A child process terminated abruptly"
                raise ValueError("bad value(s) in fds_to_keep")
            if not self.racy:
                fut.set_result(fn(payload))
            self.futures.append(fut)
            return fut

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    clean_env.setattr(futures, "ProcessPoolExecutor", RacedPool)
    pooled = run_specs(_specs(), SCALE, CYCLES, jobs=2, retries=1,
                       backoff=0.0)
    _assert_identical(serial, pooled)
    assert pools[0].submitted == [(0, 0), (1, 0)]
    if broken:
        # Rebuilt, with both lost specs charged one crash attempt.
        assert len(pools) == 2
        assert sorted(pools[1].submitted) == [(0, 1), (1, 1), (2, 0),
                                              (3, 0)]
    else:
        # A pool that cannot spawn is abandoned for the serial path.
        assert len(pools) == 1
