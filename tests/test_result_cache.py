"""The persistent result cache: accounting, corruption, salting, keys.

The cache must be strictly an accelerator: a damaged or stale cache may
only cost re-simulation, never change results or crash, and a warm cache
must satisfy repeated runs with zero ``Machine.run`` calls.  That holds
under concurrency (two processes racing on one key) and under the fault
injector's cache-corruption site (``REPRO_FAULTS=corrupt@i``).  The
LRU cases run on the result cache and, through the same store, on a
trace-store root.
"""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.core import parallel
from repro.core.experiment import Experiment
from repro.core.parallel import ResultCache, RunSpec, config_key, execute
from repro.settings import Settings, SettingsError
from repro.simulator.configs import fc_cmp
from repro.workloads.tracestore import TraceStore, active_store
from tests.trace_events import tiny_workload

SCALE = 0.02
CYCLES = 40_000


def _config(l2_mb: float = 1.0, scale: float = SCALE):
    return fc_cmp(n_cores=4, l2_nominal_mb=l2_mb, scale=scale)


def _experiment(cache_dir, **kwargs) -> Experiment:
    return Experiment(scale=SCALE, measure_cycles=CYCLES,
                      cache_dir=str(cache_dir), **kwargs)


def _cache_files(root) -> list:
    return [os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names if name.endswith(".pkl")]


def _disk_bytes(store) -> int:
    """Entry bytes a store root holds on disk, as its budget counts them."""
    return sum(path.stat().st_size
               for path in store.root.glob("*/*" + store.suffix))


@pytest.mark.slow
class TestCacheAccounting:
    def test_miss_store_then_hit(self, tmp_path):
        e1 = _experiment(tmp_path)
        first = e1.run(_config(), "dss")
        assert e1.sim_runs == 1
        assert e1.cache.misses == 1
        assert e1.cache.stores == 1
        # Same process: memo hit, the disk cache is not consulted again.
        assert e1.run(_config(), "dss") == first
        assert e1.cache.hits == 0

        # Fresh process (simulated by a fresh Experiment): disk hit.
        e2 = _experiment(tmp_path)
        assert e2.run(_config(), "dss") == first
        assert e2.sim_runs == 0
        assert e2.cache.hits == 1
        assert e2.cache.misses == 0

    def test_warm_cache_performs_zero_machine_runs(self, tmp_path,
                                                   monkeypatch):
        specs = [RunSpec(_config(mb), "dss") for mb in (1.0, 4.0)]
        e1 = _experiment(tmp_path)
        first = e1.run_many(specs, jobs=1)
        assert e1.sim_runs == len(specs)

        # With the cache warm, simulation must be unreachable: replace the
        # Machine class on the only simulation path with a tripwire.
        class Tripwire:
            def __init__(self, *a, **k):
                raise AssertionError("Machine.run called on a warm cache")

        monkeypatch.setattr(parallel, "Machine", Tripwire)
        e2 = _experiment(tmp_path)
        second = e2.run_many(specs, jobs=1)
        assert e2.sim_runs == 0
        assert e2.cache.hits == len(specs)
        assert second == first

    def test_use_cache_false_disables_disk(self, tmp_path):
        exp = _experiment(tmp_path, use_cache=False)
        assert exp.cache is None
        exp.run(_config(), "dss")
        assert _cache_files(tmp_path) == []


@pytest.mark.slow
class TestCacheRobustness:
    def test_corrupt_entry_falls_back_to_simulation(self, tmp_path):
        e1 = _experiment(tmp_path)
        first = e1.run(_config(), "dss")
        (path,) = _cache_files(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"this is not a pickle")

        e2 = _experiment(tmp_path)
        recovered = e2.run(_config(), "dss")
        assert recovered == first
        assert e2.sim_runs == 1
        assert e2.cache.errors == 1
        assert e2.cache.misses == 1
        # The refill repaired the entry for the next reader.
        e3 = _experiment(tmp_path)
        assert e3.run(_config(), "dss") == first
        assert e3.sim_runs == 0

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        """A well-framed entry that does not decode to a MachineResult,
        and a raw result pickle in the format stored before entries were
        framed, are each an error-counted miss and are unlinked."""
        cache = ResultCache(str(tmp_path))
        key = ("k",)
        path = cache.path_for(key)
        result = execute(RunSpec(_config(), "dss"), SCALE, CYCLES)
        cache.save(key, {"not": "a MachineResult"}, pickle.dumps)
        assert cache.get(key) is None
        assert (cache.errors, cache.misses) == (1, 1)
        assert not path.exists()
        path.write_bytes(pickle.dumps(result,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        assert cache.get(key) is None
        assert (cache.errors, cache.misses) == (2, 2)
        assert not path.exists()

    def test_salt_change_invalidates_stale_entries(self, tmp_path):
        e1 = _experiment(tmp_path)
        first = e1.run(_config(), "dss")
        # A simulator change bumps the code-version salt: old entries are
        # no longer addressable, so the point re-simulates and both
        # versions coexist on disk.
        e2 = Experiment(scale=SCALE, measure_cycles=CYCLES,
                        cache=ResultCache(str(tmp_path), salt="sim-v2"))
        second = e2.run(_config(), "dss")
        assert e2.sim_runs == 1
        assert e2.cache.misses == 1
        assert second == first  # same code, so same result — but re-proved
        assert len(_cache_files(tmp_path)) == 2

    def test_unwritable_cache_root_is_best_effort(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should go")
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         cache=ResultCache(str(blocked / "sub")))
        result = exp.run(_config(), "dss")  # must not raise
        assert result.ipc > 0
        assert exp.cache.errors >= 1


class TestConfigKey:
    def test_equal_configs_produce_equal_keys(self):
        assert config_key(_config()) == config_key(_config())

    def test_unequal_scales_produce_distinct_keys(self):
        assert (config_key(_config(scale=0.02))
                != config_key(_config(scale=0.04)))

    def test_distinct_hierarchies_produce_distinct_keys(self):
        assert config_key(_config(1.0)) != config_key(_config(4.0))

    def test_container_fields_normalize_to_hashable(self):
        a, b = _config(), _config()
        # HierarchyParams is mutable: an experiment could stash a list in
        # a field.  The key must stay hashable and list/tuple-insensitive.
        a.hierarchy.l2_banks = [4, 2]
        b.hierarchy.l2_banks = (4, 2)
        key = config_key(a)
        hash(key)
        assert key == config_key(b)

    def test_unhashable_field_raises_clear_error(self):
        config = _config()
        config.hierarchy.l2_banks = bytearray(b"oops")
        with pytest.raises(TypeError, match="unhashable field"):
            config_key(config)

    def test_key_is_usable_as_dict_key(self):
        d = {config_key(_config()): 1}
        assert d[config_key(_config())] == 1


class TestPutRobustness:
    def test_stats_summary(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0,
                                 "errors": 0, "evictions": 0}
        assert cache.get(("nothing",)) is None
        assert cache.stats()["misses"] == 1

    def test_unpicklable_payload_counts_error_never_raises(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("deliberately unpicklable")

        cache = ResultCache(str(tmp_path))
        cache.put(("k",), Unpicklable())  # must not propagate
        assert cache.errors == 1
        assert cache.stores == 0
        assert _cache_files(tmp_path) == []

    def test_no_temp_droppings_after_failed_store(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("nope")

        cache = ResultCache(str(tmp_path))
        cache.put(("k",), Unpicklable())
        leftovers = [name for _, _, names in os.walk(tmp_path)
                     for name in names]
        assert leftovers == []


@pytest.mark.slow
class TestConcurrentWriters:
    def test_two_processes_storing_the_same_key(self, tmp_path):
        """Two cache writers racing on one key must both succeed without
        errors, and the surviving entry must be readable (each store is
        an atomic rename of a private temp file)."""
        result = execute(RunSpec(_config(), "dss"), SCALE, CYCLES)
        blob = tmp_path / "result.pkl"
        blob.write_bytes(pickle.dumps(result))
        root = tmp_path / "cache"
        script = textwrap.dedent(f"""
            import pickle
            from repro.core.parallel import ResultCache
            with open({str(blob)!r}, "rb") as fh:
                result = pickle.load(fh)
            cache = ResultCache({str(root)!r})
            for _ in range(40):
                cache.put(("concurrent", "writers"), result)
            print(cache.errors, cache.stores)
        """)
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in (env.get("PYTHONPATH"),) if p])
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [p.communicate()[0].split() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert [out for out in outs] == [["0", "40"], ["0", "40"]]
        reader = ResultCache(str(root))
        assert reader.get(("concurrent", "writers")) == result
        droppings = [name for _, _, names in os.walk(root)
                     for name in names if name.endswith(".tmp")]
        assert droppings == []


@pytest.mark.slow
class TestCorruptionUnderInjector:
    def test_injected_corruption_recovers_by_resimulating(
            self, tmp_path, monkeypatch):
        """``corrupt@i`` writes garbage for batch index i; the next
        reader treats it as a corrupt entry, re-simulates bit-for-bit,
        and repairs the cache."""
        specs = [RunSpec(_config(mb), "dss") for mb in (1.0, 4.0)]
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@1")
        e1 = _experiment(tmp_path)
        first = e1.run_many(specs, jobs=1)
        assert e1.cache.stores == 2  # both written, one as garbage

        monkeypatch.delenv("REPRO_FAULTS")
        e2 = _experiment(tmp_path)
        second = e2.run_many(specs, jobs=1)
        assert second == first
        assert e2.cache.errors == 1
        assert e2.cache.hits == 1
        assert e2.sim_runs == 1  # only the corrupted entry re-simulated

        # The refill repaired the entry: a third reader is all hits.
        e3 = _experiment(tmp_path)
        assert e3.run_many(specs, jobs=1) == first
        assert e3.sim_runs == 0


class TestBudgetParsing:
    """``REPRO_CACHE_BUDGET`` → bytes; a bad knob fails eagerly, so it
    can neither empty a cache nor silently disable eviction."""

    @pytest.mark.parametrize("raw,expected", [
        ("4096", 4096),
        ("64k", 64 * 1024),
        ("2m", 2 * 1024 ** 2),
        ("1g", 1024 ** 3),
        ("1.5k", 1536),
        (" 8K ", 8 * 1024),
        ("", None),
    ])
    def test_parse(self, raw, expected):
        settings = Settings.from_env({"REPRO_CACHE_BUDGET": raw})
        assert settings.cache_budget == expected

    @pytest.mark.parametrize("raw", ["junk", "0", "-5"])
    def test_bad_value_raises(self, raw):
        with pytest.raises(SettingsError, match="REPRO_CACHE_BUDGET"):
            Settings.from_env({"REPRO_CACHE_BUDGET": raw})

    def test_unset_means_unlimited(self):
        assert Settings.from_env({}).cache_budget is None

    def test_cache_reads_env_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "2k")
        assert _experiment(tmp_path).cache.budget_bytes == 2048
        monkeypatch.delenv("REPRO_CACHE_BUDGET")
        assert _experiment(tmp_path).cache.budget_bytes is None
        # The cache itself never reads the environment.
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "2k")
        assert ResultCache(str(tmp_path)).budget_bytes is None
        assert ResultCache(str(tmp_path),
                           budget_bytes=512).budget_bytes == 512


class _LRUCases:
    """The size-budgeted store is an LRU over entry mtimes.

    Each layer's class supplies a class-scoped ``layer`` fixture:
    ``(make(root, budget_bytes), value)``.
    """

    def _key(self, i: int) -> tuple:
        return ("budget-test", i)

    def _fill(self, store, value, n: int) -> list:
        """Store n entries under distinct keys with ascending mtimes."""
        paths = []
        for i in range(n):
            store.put(self._key(i), value)
            path = store.path_for(self._key(i))
            os.utime(path, (1000.0 * (i + 1), 1000.0 * (i + 1)))
            paths.append(path)
        return paths

    def _entry_size(self, tmp_path, layer) -> int:
        make, value = layer
        probe = make(tmp_path / "probe", None)
        probe.put(("probe",), value)
        return _disk_bytes(probe)

    def test_store_evicts_oldest_until_within_budget(self, tmp_path, layer):
        make, value = layer
        size = self._entry_size(tmp_path, layer)
        store = make(tmp_path / "c", int(size * 2.5))
        self._fill(store, value, 2)
        assert store.evictions == 0
        store.put(self._key(2), value)  # 3 entries > budget: evict oldest
        assert store.evictions == 1
        assert _disk_bytes(store) <= store.budget_bytes
        assert store.get(self._key(0)) is None          # oldest: gone
        assert store.get(self._key(1)) is not None
        assert store.get(self._key(2)) is not None
        assert store.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self, tmp_path, layer):
        make, value = layer
        size = self._entry_size(tmp_path, layer)
        store = make(tmp_path / "c", int(size * 2.5))
        self._fill(store, value, 2)
        # Touch entry 0: its mtime refreshes to now, making entry 1 the
        # LRU victim when the next store breaches the budget.
        assert store.get(self._key(0)) is not None
        store.put(self._key(2), value)
        assert store.get(self._key(0)) is not None
        assert store.get(self._key(1)) is None
        assert store.get(self._key(2)) is not None

    def test_a_store_never_evicts_its_own_payload(self, tmp_path, layer):
        make, value = layer
        size = self._entry_size(tmp_path, layer)
        store = make(tmp_path / "c", max(1, size // 2))
        store.put(self._key(0), value)
        assert store.get(self._key(0)) is not None  # kept despite budget
        store.put(self._key(1), value)
        # The older entry paid for the new one.
        assert store.get(self._key(0)) is None
        assert store.get(self._key(1)) is not None

    def test_eviction_is_safe_against_concurrent_readers(self, tmp_path,
                                                         layer):
        make, value = layer
        size = self._entry_size(tmp_path, layer)
        store = make(tmp_path / "c", int(size * 1.5))
        self._fill(store, value, 1)
        victim = store.path_for(self._key(0))
        entry = victim.read_bytes()
        with open(victim, "rb") as fh:
            store.put(self._key(1), value)  # evicts the open victim
            assert store.evictions == 1
            # POSIX: the already-open handle still reads the full entry.
            assert fh.read() == entry
        # A late reader takes a clean miss, never an error.
        assert store.get(self._key(0)) is None
        assert store.errors == 0

    def test_stale_temp_file_is_evicted_before_an_entry(self, tmp_path,
                                                        layer):
        # A writer killed between mkstemp and os.replace leaves its
        # temp file; it counts against the budget and, being oldest,
        # goes first.
        make, value = layer
        size = self._entry_size(tmp_path, layer)
        store = make(tmp_path / "c", int(size * 3.5))
        paths = self._fill(store, value, 2)
        stale = paths[0].parent / "killed-writer.tmp"
        stale.write_bytes(b"\0" * size)
        os.utime(stale, (500.0, 500.0))
        store.put(self._key(2), value)  # 3 entries + the stale file
        assert not stale.exists()
        assert store.evictions == 1
        for i in range(3):
            assert store.get(self._key(i)) is not None

    def test_no_budget_means_no_eviction(self, tmp_path, layer,
                                         monkeypatch):
        make, value = layer
        monkeypatch.delenv("REPRO_CACHE_BUDGET", raising=False)
        store = make(tmp_path / "c", None)
        self._fill(store, value, 4)
        assert store.evictions == 0
        assert len(list(store.root.glob("*/*" + store.suffix))) == 4


@pytest.mark.slow
class TestLRUEviction(_LRUCases):
    """The LRU cases on the result cache."""

    @pytest.fixture(scope="class")
    def layer(self):
        return (lambda root, budget: ResultCache(str(root),
                                                 budget_bytes=budget),
                execute(RunSpec(_config(), "dss"), SCALE, CYCLES))

    def test_experiment_surfaces_eviction_stats(self, tmp_path, layer,
                                                monkeypatch):
        _, value = layer
        size = self._entry_size(tmp_path, layer)
        monkeypatch.setenv("REPRO_CACHE_BUDGET", str(int(size * 1.5)))
        exp = _experiment(tmp_path / "c")
        exp.cache.put(self._key(0), value)
        exp.cache.put(self._key(1), value)
        assert exp.cache_stats()["evictions"] == 1


class TestTraceStoreLRUEviction(_LRUCases):
    """The same LRU cases on a trace-store root."""

    @pytest.fixture(scope="class")
    def layer(self):
        def make(root, budget):
            store = TraceStore(root)
            store.budget_bytes = budget
            return store
        return make, tiny_workload()

    def test_active_store_takes_the_cache_budget(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "t"))
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "2k")
        assert active_store().budget_bytes == 2048
        monkeypatch.delenv("REPRO_CACHE_BUDGET")
        assert active_store().budget_bytes is None
