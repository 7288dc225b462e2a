"""Experiment runner: bind workloads to machines, memoize everything.

An :class:`Experiment` fixes the study-wide scale and seed, builds workload
bundles on demand (trace generation is the expensive step), and runs
machine configurations over them.  Results are memoized per
(machine-config, workload, mode) so every figure and claim can ask for
what it needs without re-simulating shared baselines.

Two layers back the memo (see :mod:`repro.core.parallel`):

- an optional persistent on-disk :class:`~repro.core.parallel.ResultCache`
  (``REPRO_CACHE_DIR`` or the ``cache_dir`` argument), so repeated
  benchmark *processes* recall results instead of re-simulating;
- :meth:`run_many` / :meth:`prefetch`, which fan uncached measurements out
  across a process pool (``REPRO_JOBS`` or the ``jobs`` argument); the
  sweep writes each result to the disk cache the moment its spec
  finishes, so rerunning a killed sweep on the same cache simulates only
  the specs it had not finished.

Warm fractions are workload-dependent (DESIGN.md §1): OLTP warms a short
prefix (its cold row stream must stay cold — the secondary working set is
unbounded in steady state), DSS warms half (its windows revisit data across
query rounds).
"""

from __future__ import annotations

from ..settings import Settings
from ..simulator.machine import (
    DEFAULT_MEASURE_CYCLES,
    MachineConfig,
    MachineResult,
)
from ..simulator.trace import Workload
from ..workloads.driver import workload_for
from .parallel import (
    WARM_FRACTIONS,
    ResultCache,
    RunSpec,
    SweepError,
    config_key,
    execute,
    run_specs,
)
from .taxonomy import Camp, Cell, Regime
from .telemetry import as_recorder, load_events, summarize

__all__ = [
    "WARM_FRACTIONS",
    "Experiment",
    "RunSpec",
    "SweepError",
]


def _config_key(config: MachineConfig) -> tuple:
    """A hashable identity for a machine configuration (see
    :func:`repro.core.parallel.config_key`)."""
    return config_key(config)


def _as_spec(spec) -> RunSpec:
    """Coerce a RunSpec-or-tuple into a RunSpec (batch API convenience)."""
    if isinstance(spec, RunSpec):
        return spec
    return RunSpec(*spec)


class Experiment:
    """A memoizing facade over workload generation and simulation.

    Args:
        scale: Study-wide scale factor; None takes ``settings.scale``.
        measure_cycles: Default measurement window for throughput runs.
        cache_dir: Root of the persistent result cache; None takes
            ``settings.cache_dir`` (no disk cache when that is unset too).
        use_cache: Set False to disable the disk cache outright (the
            in-memory memo always stays on).
        cache: An explicit :class:`ResultCache` (overrides ``cache_dir``).
        telemetry: A :mod:`repro.core.telemetry` recorder or event-log
            path; None takes ``settings.telemetry`` (telemetry off when
            that is unset too).  Cache hit/miss/store provenance and all
            sweep lifecycle events flow through it.
        settings: The run :class:`~repro.settings.Settings`; None reads
            them from the environment once, here.  The arguments above
            override their fields.

    Attributes:
        settings: The resolved settings (the sweep fan-out default and
            the resilience knobs of :meth:`run_many`, and the slow
            tier's retries in :class:`~repro.serve.service.DesignService`).
        sim_runs: Number of specs this experiment simulated (memo and
            disk-cache hits do not count) — the counter the
            determinism/cache tests assert on.
        telemetry: The resolved recorder (the inert null recorder when
            telemetry is off).
    """

    def __init__(self, scale: float | None = None,
                 measure_cycles: float = DEFAULT_MEASURE_CYCLES,
                 cache_dir: str | None = None,
                 use_cache: bool = True,
                 cache: ResultCache | None = None,
                 telemetry=None,
                 settings: Settings | None = None):
        settings = Settings.from_env() if settings is None else settings
        self.settings = settings
        self.scale = settings.scale if scale is None else scale
        self.measure_cycles = measure_cycles
        self._results: dict[tuple, MachineResult] = {}
        root = settings.cache_dir if cache_dir is None else cache_dir
        if cache is None and root:
            cache = ResultCache(root, budget_bytes=settings.cache_budget)
        self.cache = cache if use_cache else None
        self.telemetry = as_recorder(
            settings.telemetry if telemetry is None else telemetry)
        self.sim_runs = 0

    # ------------------------------------------------------------------ #
    # Workloads                                                           #
    # ------------------------------------------------------------------ #

    def workload(self, kind: str, regime: str,
                 n_clients: int | None = None) -> Workload:
        """The (memoized) trace bundle for a workload kind and regime."""
        return workload_for(kind, regime, self.scale, n_clients=n_clients)

    # ------------------------------------------------------------------ #
    # Running                                                             #
    # ------------------------------------------------------------------ #

    def _lookup(self, key: tuple, source: str = "run") -> MachineResult | None:
        """Memo, then disk cache (promoting disk hits into the memo).

        ``source`` names the call site ("run", "sweep", ...) for the
        telemetry cache-provenance events; the plain ``ResultCache``
        counters cannot attribute a hit to the path that took it.
        """
        cached = self._results.get(key)
        if cached is not None:
            return cached
        if self.cache is not None:
            stored = self.cache.get(key)
            if stored is not None:
                self._results[key] = stored
                self.telemetry.emit("cache_hit", source=source)
                return stored
            self.telemetry.emit("cache_miss", source=source)
        return None

    def _store(self, key: tuple, result: MachineResult,
               source: str = "run") -> None:
        self._results[key] = result
        if self.cache is not None:
            self.cache.put(key, result)
            self.telemetry.emit("cache_store", source=source, index=None)

    def cache_stats(self) -> dict | None:
        """Disk-cache accounting (hits/misses/stores/errors), or None."""
        return None if self.cache is None else self.cache.stats()

    def telemetry_summary(self) -> dict | None:
        """The summary of this experiment's event log — sweep keys plus
        the ``service`` and ``points`` sections
        (:func:`repro.core.telemetry.summarize`) — or None when telemetry
        is disabled."""
        if not self.telemetry.enabled or not self.telemetry.path:
            return None
        return summarize(load_events(self.telemetry.path))

    def run(self, config: MachineConfig, kind: str,
            regime: str = "saturated", n_clients: int | None = None,
            measure_cycles: float | None = None, *,
            topology=None,
            placement: str = "shared-everything") -> MachineResult:
        """Run (or recall) a throughput/response measurement.

        Unsaturated regimes run in response mode (the paper's metric for
        them); saturated regimes in throughput mode.  ``topology`` and
        ``placement`` opt a measurement into a hardware-islands machine
        (see :class:`repro.core.parallel.RunSpec`); the defaults keep
        the pre-island behaviour and cache keys.
        """
        spec = RunSpec(config, kind, regime, n_clients, measure_cycles,
                       topology=topology, placement=placement)
        key = spec.key(self.scale, self.measure_cycles)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        result = execute(spec, self.scale, self.measure_cycles)
        self.sim_runs += 1
        self._store(key, result)
        return result

    def run_many(self, specs,
                 jobs: int | None = None) -> list[MachineResult]:
        """Run (or recall) a batch of measurements, fanned across workers.

        Lifecycle events go to the experiment's telemetry recorder.

        Args:
            specs: :class:`RunSpec` instances (or tuples of RunSpec
                arguments, ``(config, kind, ...)``).
            jobs: Worker processes for the uncached remainder; None takes
                ``settings.jobs`` (default 1 = serial in-process).  The
                resilience knobs (timeout, retries, backoff, fail-fast)
                come from :attr:`settings`.

        Returns:
            Results in spec order, field-for-field identical to what
            :meth:`run` would produce serially (the pool workers execute
            the same deterministic simulation path, and retried or
            fault-recovered attempts re-run it unchanged).

        Raises:
            SweepError: When a spec exhausts its retry budget.  Results
                completed before the failure are memoized and already in
                the disk cache, so a fixed-up rerun only simulates the
                remainder.
        """
        specs = [_as_spec(s) for s in specs]
        keys = [s.key(self.scale, self.measure_cycles) for s in specs]
        results: list[MachineResult | None] = [
            self._lookup(k, source="sweep") for k in keys
        ]
        todo: list[int] = []
        seen: dict[tuple, int] = {}
        for i, (key, res) in enumerate(zip(keys, results)):
            if res is None and key not in seen:
                seen[key] = i
                todo.append(i)
        if todo:
            s = self.settings
            try:
                fresh = run_specs(
                    [specs[i] for i in todo], self.scale,
                    self.measure_cycles,
                    jobs=s.jobs if jobs is None else jobs,
                    timeout=s.timeout, retries=s.retries, backoff=s.backoff,
                    fail_fast=s.fail_fast,
                    cache=self.cache, telemetry=self.telemetry)
            except SweepError as err:
                # The sweep already stored every completed result in the
                # disk cache; keep them in the memo too.
                for i, result in zip(todo, err.results):
                    if result is not None:
                        self.sim_runs += 1
                        self._results[keys[i]] = result
                raise
            self.sim_runs += len(fresh)
            for i, result in zip(todo, fresh):
                self._results[keys[i]] = result
                results[i] = result
            # Duplicate specs within the batch resolve off the memo.
            for i, (key, res) in enumerate(zip(keys, results)):
                if res is None:
                    results[i] = self._results[key]
        return results  # type: ignore[return-value]

    def prefetch(self, specs, jobs: int | None = None) -> dict:
        """Warm the memo/disk caches for ``specs``; return accounting.

        Figures and claim measurements call this with their whole grid up
        front, then keep their readable serial loops — every subsequent
        :meth:`run` is a memo hit.  Resilience comes from the
        experiment's :attr:`settings`, as in :meth:`run_many`.
        """
        specs = list(specs)
        before = self.sim_runs
        self.run_many(specs, jobs=jobs)
        return {
            "specs": len(specs),
            "simulated": self.sim_runs - before,
            "cache": self.cache_stats(),
        }

    def run_cell(self, cell: Cell, config_for_camp) -> MachineResult:
        """Run one taxonomy cell with ``config_for_camp(camp) -> config``."""
        config = config_for_camp(cell.camp)
        return self.run(config, cell.kind.value, cell.regime.value)

    # ------------------------------------------------------------------ #
    # Convenience metrics                                                 #
    # ------------------------------------------------------------------ #

    def throughput_ratio(self, num: MachineConfig, den: MachineConfig,
                         kind: str) -> float:
        """Saturated throughput of ``num`` normalized to ``den``."""
        return (self.run(num, kind, "saturated").ipc
                / self.run(den, kind, "saturated").ipc)

    def response_ratio(self, num: MachineConfig, den: MachineConfig,
                       kind: str) -> float:
        """Unsaturated response time of ``num`` normalized to ``den``."""
        return (self.run(num, kind, "unsaturated").response_cycles
                / self.run(den, kind, "unsaturated").response_cycles)

