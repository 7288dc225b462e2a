"""Resilient parallel sweep execution and the persistent result cache.

Sweep points, taxonomy cells, and ablation grids are embarrassingly
parallel: each is one deterministic ``Machine.run`` over a workload bundle
that depends only on ``(kind, regime, scale, n_clients)``.  This module is
the scaling substrate the rest of the study runs on:

- :class:`RunSpec` — a picklable description of one measurement (machine
  config + workload coordinates).  :func:`execute` turns a spec into a
  :class:`~repro.simulator.machine.MachineResult`; it is the *only* code
  path that simulates, so serial runs, pool workers, and cache misses all
  produce bit-for-bit identical results (``tests/test_parallel_determinism``
  locks this down).
- :func:`run_specs` — fan a batch of specs across a process pool
  (``jobs`` workers; :class:`~repro.core.experiment.Experiment` passes
  its ``jobs`` setting)
  with per-spec timeouts, bounded retries with exponential backoff,
  worker-crash isolation, and structured :class:`SpecFailure` records.
  Each result is written to the :class:`ResultCache` the moment its spec
  finishes, so an interrupted sweep rerun on the same cache simulates
  only the unfinished specs.  A graceful single-process fallback covers
  platforms without multiprocessing.
- :class:`ResultCache` — the :class:`~repro.store.Store` codec for
  results, keyed by the normalized machine-config identity, the workload
  coordinates, and a code-version salt, so repeated benchmark runs recall
  results instead of re-simulating.  Corrupt or stale entries fall back
  to simulation.

Failure semantics (see DESIGN.md §6): a worker exception or injected
fault costs one *attempt*; a spec retries up to ``retries`` times with
exponential backoff before it becomes a :class:`SpecFailure`.  A worker
crash breaks the pool; completed results are kept, only the specs that
were in flight are charged an attempt and re-run on a fresh pool.  A spec
that exceeds ``timeout`` seconds is charged a timeout attempt and its
stuck worker is killed with the pool (collateral in-flight specs re-run
free of charge).  When any spec exhausts its retries the sweep raises
:class:`SweepError` carrying the failures and every completed result —
after finishing the rest of the grid unless ``fail_fast`` is set.

Determinism contract: the simulator is a pure function of its inputs (all
randomness is seeded per workload builder; the event loop breaks time ties
with a deterministic sequence number), so fanning specs out over
processes — or re-running them after crashes, hangs, or injected faults
(:mod:`repro.core.faults`) — cannot change any result field.  Anything
that would break this — wall clocks, unordered iteration, shared mutable
state across specs — must not enter :func:`execute`.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import multiprocessing
from collections import deque
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace

from ..settings import DEFAULT_BACKOFF, DEFAULT_RETRIES
from ..simulator.machine import (
    DEFAULT_MEASURE_CYCLES,
    Machine,
    MachineConfig,
    MachineResult,
)
from ..simulator.profiling import NULL_PROBE, RunProbe
from ..simulator.trace import Workload
from ..simulator.topology import (
    DEFAULT_PLACEMENT,
    IslandTopology,
    as_topology,
    check_geometry,
    check_placement,
)
from ..store import Store
from ..workloads import driver as _driver
from ..workloads.contention import SkewSpec, as_skew
from ..workloads.driver import SATURATED_CLIENTS, workload_for
from . import faults
from .telemetry import NULL_RECORDER, as_recorder, worker_recorder

#: Cache salt: bump whenever a change alters simulation results so stale
#: on-disk entries are invalidated instead of silently recalled.
CODE_VERSION = "repro-sim-v1"

#: Fraction of each client trace warmed functionally, per workload kind
#: (DESIGN.md §1: OLTP's cold row stream must stay cold, DSS's query
#: windows revisit data across rounds).
WARM_FRACTIONS = {"oltp": 0.15, "dss": 0.5}

#: Workload regimes a :class:`RunSpec` may name (Fig. 2's two operating
#: points: throughput-bound vs. response-time-bound).
REGIMES = ("saturated", "unsaturated")

#: Longest sleep before one retry, in seconds: the doubling backoff stops
#: growing here, so a large retry budget waits minutes, not days.
MAX_RETRY_DELAY = 60.0


# ---------------------------------------------------------------------- #
# Config identity                                                         #
# ---------------------------------------------------------------------- #

def _normalize(value):
    """Recursively convert containers to hashable equivalents."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _normalize(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_normalize(v) for v in value))
    return value


def config_key(config: MachineConfig) -> tuple:
    """A hashable identity for a machine configuration.

    ``HierarchyParams`` is a mutable dataclass, so nothing stops an
    experiment from storing a list (or other unhashable value) in a field;
    container values are normalized to hashable tuples and anything still
    unhashable raises a clear error instead of failing deep inside a dict
    lookup.
    """
    hier = tuple(
        (f.name, _normalize(getattr(config.hierarchy, f.name)))
        for f in fields(config.hierarchy)
    )
    key = (config.name, config.core, hier, config.smp)
    # Single-socket configs keep the exact pre-island key shape so
    # existing on-disk cache entries still hit; active topologies append
    # an islands component.
    topo = getattr(config, "topology", None)
    if topo is not None and topo.active:
        key += (topo.key(),)
    try:
        hash(key)
    except TypeError as exc:
        raise TypeError(
            f"machine config {config.name!r} has unhashable field values; "
            "hierarchy/core fields must be scalars or containers of "
            f"scalars ({exc})"
        ) from exc
    return key


# ---------------------------------------------------------------------- #
# Run specifications                                                      #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class RunSpec:
    """One measurement: a machine configuration at workload coordinates.

    Workload coordinates are validated eagerly: a typo'd kind or regime
    raises ``ValueError`` at construction, not a ``KeyError`` from deep
    inside a pool worker minutes into a sweep.

    Attributes:
        config: The machine to simulate.
        kind: ``"oltp"`` or ``"dss"``.
        regime: ``"saturated"`` or ``"unsaturated"``.
        n_clients: Client-count override (Fig. 2 sweeps), a positive
            int on the saturated regime only; None uses the paper
            default (:data:`repro.workloads.driver.SATURATED_CLIENTS`),
            and so does that default given explicitly.
        measure_cycles: Window override, finite and positive; None uses
            the experiment default.
        skew: Optional contention knobs
            (:class:`repro.workloads.contention.SkewSpec`); None keeps
            the uniform benchmark distributions.  OLTP only.
        cc_mode: Concurrency-control mode (``"2pl"`` or
            ``"partitioned"``).  OLTP only.
        topology: Optional hardware-islands topology override
            (:class:`repro.simulator.topology.IslandTopology` or an int
            socket count); None uses whatever topology the config
            carries.  Applied onto the config at execution time.
        placement: Deployment placement on islands machines
            (:data:`repro.simulator.topology.PLACEMENTS`); only the
            default ``shared-everything`` is legal single-socket.
    """

    config: MachineConfig
    kind: str
    regime: str = "saturated"
    n_clients: int | None = None
    measure_cycles: float | None = None
    skew: SkewSpec | None = None
    cc_mode: str = "2pl"
    topology: IslandTopology | None = None
    placement: str = DEFAULT_PLACEMENT

    def __post_init__(self):
        if self.kind not in WARM_FRACTIONS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}: expected one of "
                f"{sorted(WARM_FRACTIONS)}")
        if self.regime not in REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r}: expected one of "
                f"{list(REGIMES)}")
        if self.n_clients is not None:
            if (isinstance(self.n_clients, bool)
                    or not isinstance(self.n_clients, int)
                    or self.n_clients < 1):
                raise ValueError(
                    "n_clients must be a positive int, got "
                    f"{self.n_clients!r}")
            if self.regime != "saturated":
                raise ValueError(
                    "n_clients applies to the saturated regime only "
                    "(an unsaturated run measures one client)")
        if self.measure_cycles is not None and not (
                math.isfinite(self.measure_cycles)
                and self.measure_cycles > 0):
            raise ValueError(
                "measure_cycles must be finite and positive, got "
                f"{self.measure_cycles!r}")
        # Eager contention validation: bad knobs fail here, not minutes
        # later inside a pool worker.  as_skew re-runs SkewSpec's range
        # checks and rejects non-SkewSpec values.
        skew = as_skew(self.skew)
        if self.cc_mode not in ("2pl", "partitioned"):
            raise ValueError(
                f"unknown cc_mode {self.cc_mode!r}: expected '2pl' or "
                "'partitioned'")
        if (skew.active or self.cc_mode != "2pl") and self.kind != "oltp":
            raise ValueError(
                "skew/cc_mode apply to kind='oltp' only")
        # Eager islands validation, mirroring the contention gating above:
        # bad topologies/placements fail at construction.  as_topology
        # re-runs IslandTopology's range checks; the geometry checks
        # catch per-island core/bank counts that do not tile the chip.
        topo = self.resolved_topology
        check_placement(self.placement, topo)
        if self.config.smp and topo is not None and topo.active:
            raise ValueError(
                "islands topologies apply to shared-L2 CMP machines, "
                "not smp")
        check_geometry(topo, self.config.hierarchy.n_cores,
                       self.config.hierarchy.l2_banks)

    @property
    def resolved_topology(self) -> IslandTopology | None:
        """The effective topology: the spec override, else the config's."""
        topo = as_topology(self.topology)
        return topo if topo is not None \
            else getattr(self.config, "topology", None)

    @property
    def islands(self) -> bool:
        """True when this spec runs on a multi-socket islands machine."""
        topo = self.resolved_topology
        return topo is not None and topo.active

    def resolved_config(self) -> MachineConfig:
        """The config to simulate, with any topology override applied."""
        topo = as_topology(self.topology)
        if topo is None or self.config.topology == topo:
            return self.config
        return replace(self.config, topology=topo)

    @property
    def contended(self) -> bool:
        """True when any contention knob departs from the default."""
        return as_skew(self.skew).active or self.cc_mode != "2pl"

    @property
    def mode(self) -> str:
        """Unsaturated regimes run in response mode (the paper's metric)."""
        return "response" if self.regime == "unsaturated" else "throughput"

    def resolved_cycles(self, default_cycles: float) -> float:
        return (default_cycles if self.measure_cycles is None
                else self.measure_cycles)

    def key(self, scale: float, default_cycles: float) -> tuple:
        """The memoization/cache identity of this measurement.

        Default (uniform, 2PL) specs keep the exact pre-contention key
        shape so existing on-disk cache entries still hit; opted-in
        specs append a contention suffix.  The paper-default client
        count keys as None: it names the same bundle and result.
        """
        clients = (None if self.n_clients == SATURATED_CLIENTS[self.kind]
                   else self.n_clients)
        key = (config_key(self.resolved_config()), self.kind, self.regime,
               clients, self.mode,
               self.resolved_cycles(default_cycles), scale)
        if self.contended:
            key += (("contention", as_skew(self.skew).key(), self.cc_mode),)
        if self.islands:
            # Only multi-socket specs grow an islands suffix; the
            # topology itself is already in the config key, so this
            # records the placement dimension.
            key += (("islands", self.placement),)
        return key


def execute(spec: RunSpec, scale: float,
            default_cycles: float = DEFAULT_MEASURE_CYCLES,
            probe=NULL_PROBE) -> MachineResult:
    """Simulate one spec from scratch (no memoization, no cache).

    This is the single simulation path shared by ``Experiment.run``, the
    pool workers, cache-miss refills and the design service's slow tier,
    which is what makes parallel and served results bit-for-bit
    identical to serial ones.  ``probe`` is a
    :mod:`repro.simulator.profiling` observer (phase wall-times, event
    counts); it reads simulation outputs but never feeds anything back,
    so results are identical with or without one.
    """
    machine = Machine(spec.resolved_config())
    return machine.run(
        _workload(spec, scale),
        mode=spec.mode,
        measure_cycles=spec.resolved_cycles(default_cycles),
        warm_fraction=WARM_FRACTIONS[spec.kind],
        probe=probe,
        placement=spec.placement,
    )


def _workload(spec: RunSpec, scale: float) -> Workload:
    """The driver's bundle for ``spec``'s workload coordinates."""
    return workload_for(spec.kind, spec.regime, scale,
                        n_clients=spec.n_clients, skew=spec.skew,
                        cc_mode=spec.cc_mode)


def prebuild_workloads(specs, scale: float, indices=None) -> list[Workload]:
    """Build each distinct workload bundle once, in the calling process.

    Called before a pool fan-out so no worker pays the engine-execution
    cost: fork-started workers inherit the parent's bundle registry, and
    non-fork workers adopt its entries through the pool initializer
    (:func:`_adopt_worker_init`).  With ``REPRO_TRACE_DIR`` set the build
    also lands in the cross-process trace store for later processes.
    Building is deterministic, so this cannot change any result — only
    where the build time is spent.  Derived replay columns and warm
    state are not prepared here: each run derives them at first use.

    Args:
        specs: The sweep batch.
        scale: Study scale factor.
        indices: Spec positions to consider (default: all).

    Returns:
        The distinct bundles, built (or found already built).
    """
    it = specs if indices is None else (specs[i] for i in indices)
    bundles = {}
    for spec in it:
        workload = _workload(spec, scale)
        bundles[id(workload)] = workload
    return list(bundles.values())


def _adopt_worker_init(bundles: dict) -> None:
    """Non-fork pool-worker initializer: adopt the parent's built bundles.

    Must never raise: an initializer exception breaks every pool built
    with it, and the scheduling loop would tear down and rebuild forever.
    A worker whose adoption failed just builds (or store-loads) bundles
    itself, results identical.
    """
    try:
        _driver.adopt_bundles(bundles)
    except Exception:
        pass


# ---------------------------------------------------------------------- #
# Failure records                                                         #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class SpecFailure:
    """One spec that exhausted its retry budget.

    Attributes:
        index: Position in the submitted batch.
        spec: The failed measurement.
        kind: ``"timeout"``, ``"crash"``, or ``"error"``.
        attempts: Attempts consumed (including the final failure).
        message: The last error observed.
    """

    index: int
    spec: RunSpec
    kind: str
    attempts: int
    message: str


class SweepError(RuntimeError):
    """A sweep finished (or aborted) with failed specs.

    Attributes:
        failures: The :class:`SpecFailure` records, in batch order.
        results: Per-spec results in batch order; ``None`` for specs that
            failed or were never attempted (``fail_fast`` aborts).
    """

    def __init__(self, failures: list[SpecFailure],
                 results: list[MachineResult | None]):
        self.failures = list(failures)
        self.results = list(results)
        done = sum(1 for r in results if r is not None)
        detail = "; ".join(
            f"spec {f.index} [{f.kind}] after {f.attempts} attempt(s): "
            f"{f.message}" for f in self.failures[:3])
        more = ("" if len(self.failures) <= 3
                else f" (+{len(self.failures) - 3} more)")
        super().__init__(
            f"{len(self.failures)} of {len(results)} specs failed "
            f"({done} completed): {detail}{more}")


# ---------------------------------------------------------------------- #
# Process-pool fan-out                                                    #
# ---------------------------------------------------------------------- #

class _PoolUnavailable(Exception):
    """Multiprocessing cannot start here; use the serial fallback."""


def _guarded_execute(spec: RunSpec, scale: float, default_cycles: float,
                     index: int, attempt: int, telem=NULL_RECORDER,
                     sweep: str | None = None) -> MachineResult:
    """The sweep-layer execution path: fault hooks, then :func:`execute`.

    With telemetry enabled the executing process (pool worker or serial
    fallback) emits one ``spec_exec`` event carrying its pid, the
    monotonic wall time, and the simulator probe's phase/counter
    snapshot; the fault hooks fire *before* timing starts so an injected
    crash or hang never half-writes an event.
    """
    faults.maybe_raise(index, attempt)
    if not telem.enabled:
        return execute(spec, scale, default_cycles)
    probe = RunProbe()
    t0 = time.monotonic()
    result = execute(spec, scale, default_cycles, probe=probe)
    telem.emit("spec_exec", sweep=sweep, index=index, attempt=attempt,
               wall_s=round(time.monotonic() - t0, 6),
               profile=probe.snapshot())
    return result


def _pool_worker(payload: tuple) -> MachineResult:
    spec, scale, default_cycles, index, attempt, telem_path, sweep = payload
    # Crash/hang faults fire only here: in-process they would kill or
    # stall the parent instead of exercising recovery.
    faults.maybe_crash(index, attempt)
    faults.maybe_hang(index, attempt)
    return _guarded_execute(spec, scale, default_cycles, index, attempt,
                            worker_recorder(telem_path), sweep)


def _terminate_pool(pool) -> None:
    """Tear a pool down without waiting on its workers.

    ``shutdown(cancel_futures=True)`` alone never reaps a hung or
    crash-looping worker, so the worker processes are terminated directly
    (touching the executor's ``_processes`` map is the only way short of
    re-implementing the pool).
    """
    try:
        procs = list((getattr(pool, "_processes", None) or {}).values())
    except Exception:
        procs = []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(1.0)
        except Exception:
            pass


def _retry_delay(backoff: float, attempt: int) -> float:
    """Seconds to sleep before retry ``attempt`` (1-based):
    ``backoff * 2**(attempt-1)``, capped at :data:`MAX_RETRY_DELAY`."""
    # An unbounded exponent would overflow the float product; 64
    # doublings put every backoff above 4e-18 s at the cap.
    return min(backoff * 2 ** min(attempt - 1, 64), MAX_RETRY_DELAY)


def _run_serial(specs, scale, default_cycles, indices, fail_fast, attempts,
                finish, attempt_failed, telem=NULL_RECORDER,
                sweep: str | None = None) -> None:
    """Retrying in-process executor (no timeouts: nothing can preempt a
    hung spec without a worker process to kill)."""
    for i in indices:
        while True:
            attempt = attempts[i]
            telem.emit("spec_started", sweep=sweep, index=i,
                       attempt=attempt)
            t0 = time.monotonic()
            try:
                result = _guarded_execute(specs[i], scale, default_cycles,
                                          i, attempt, telem, sweep)
            except Exception as exc:
                if attempt_failed(i, "error", f"{type(exc).__name__}: {exc}"):
                    continue
                if fail_fast:
                    return
            else:
                finish(i, result, time.monotonic() - t0)
            break


def _run_pool(specs, scale, default_cycles, pending, jobs, timeout,
              fail_fast, attempts, finish, attempt_failed,
              telem=NULL_RECORDER, sweep: str | None = None) -> None:
    """Fan ``pending`` spec indices across a process pool, resiliently.

    Every distinct workload is built in the parent first, so no worker
    re-runs the engine: fork-started workers inherit the built bundles,
    and when the start method is not ``fork``, every pool (including
    rebuilds after crashes/timeouts) starts its workers with
    :func:`_adopt_worker_init` over the parent's registry entries for
    them.  Specs are submitted one future at a time into a window of at
    most ``jobs`` in-flight futures, so a submitted spec starts (nearly)
    immediately and its timeout clock measures actual runtime.  Raises
    :class:`_PoolUnavailable` if a pool cannot be created, or cannot
    spawn a worker while it is not broken.
    """
    bundles = prebuild_workloads(specs, scale, pending)
    max_workers = min(jobs, len(pending))
    kwargs = {}
    if multiprocessing.get_start_method() != "fork":
        kwargs = dict(initializer=_adopt_worker_init,
                      initargs=(_driver.built_bundles(bundles),))

    def new_pool():
        try:
            return futures.ProcessPoolExecutor(max_workers=max_workers,
                                               **kwargs)
        except (OSError, ValueError) as exc:
            raise _PoolUnavailable from exc

    aborted = False

    def charge(index: int, kind: str, message: str) -> None:
        """Charge one attempt; requeue the spec or register its failure."""
        nonlocal aborted
        if attempt_failed(index, kind, message):
            queue.append(index)
        elif fail_fast:
            aborted = True

    def collect(fut, entry: tuple) -> bool:
        """Absorb one completed future; True if the pool broke."""
        index, submitted_at = entry
        try:
            result = fut.result()
        except BrokenProcessPool as exc:
            # The worker running (or about to run) this spec died.  Every
            # in-flight future fails this way at once — the guilty spec
            # cannot be singled out, so each lost spec is charged one
            # attempt and re-run on a fresh pool.
            charge(index, "crash",
                   str(exc) or "worker process died abruptly")
            return True
        except futures.CancelledError:
            # Collateral of a pool teardown — not this spec's fault.
            queue.append(index)
            return False
        except Exception as exc:
            charge(index, "error", f"{type(exc).__name__}: {exc}")
            return False
        finish(index, result, time.monotonic() - submitted_at)
        return False

    telem_path = getattr(telem, "path", None)
    pool = new_pool()
    queue: deque[int] = deque(pending)
    inflight: dict = {}  # future -> (spec index, submitted_at)
    rebuild = False
    try:
        while (queue or inflight) and not aborted:
            if rebuild:
                # Keep results that made it back before the teardown;
                # everything else re-runs without being charged.
                for fut in [f for f in inflight if f.done()]:
                    collect(fut, inflight.pop(fut))
                for fut in list(inflight):
                    queue.append(inflight.pop(fut)[0])
                _terminate_pool(pool)
                pool = new_pool()
                rebuild = False
                continue
            while queue and len(inflight) < max_workers:
                index = queue.popleft()
                payload = (specs[index], scale, default_cycles, index,
                           attempts[index], telem_path, sweep)
                try:
                    fut = pool.submit(_pool_worker, payload)
                except BrokenProcessPool:
                    queue.appendleft(index)
                    rebuild = True
                    break
                except (OSError, ValueError) as exc:
                    # Under a non-fork start, submit() spawns a worker and
                    # pickles the call queue's descriptors into it.  If a
                    # worker dies meanwhile, the pool's manager thread
                    # closes that queue, the spawn's own pipes reuse the
                    # freed numbers, and the spawn fails (e.g. "bad
                    # value(s) in fds_to_keep") instead of raising
                    # BrokenProcessPool.  The manager flags the pool broken
                    # (a private attribute) before it closes anything.
                    if not getattr(pool, "_broken", False):
                        raise _PoolUnavailable from exc
                    # submit() queued this spec before spawning, so it is
                    # lost with the pool and charged like any in-flight
                    # spec; uncharged, a crash on it could recur forever.
                    charge(index, "crash", f"{type(exc).__name__}: {exc}")
                    rebuild = True
                    break
                except RuntimeError as exc:
                    raise _PoolUnavailable from exc
                telem.emit("spec_started", sweep=sweep, index=index,
                           attempt=attempts[index])
                inflight[fut] = (index, time.monotonic())
            if rebuild or not inflight:
                continue
            if timeout is None:
                wait_for = None
            else:
                now = time.monotonic()
                wait_for = max(0.05, min(t0 + timeout - now
                                         for _, t0 in inflight.values()))
            done, _ = futures.wait(set(inflight), timeout=wait_for,
                                   return_when=futures.FIRST_COMPLETED)
            for fut in done:
                if collect(fut, inflight.pop(fut)):
                    rebuild = True
            if rebuild or aborted:
                continue
            if timeout is not None:
                now = time.monotonic()
                hung = [fut for fut, (_, t0) in inflight.items()
                        if now - t0 >= timeout]
                if hung:
                    # A stuck worker cannot be preempted individually:
                    # charge the hung specs a timeout attempt and rebuild.
                    for fut in hung:
                        index, _ = inflight.pop(fut)
                        charge(index, "timeout",
                               f"no result within {timeout:g}s")
                    rebuild = True
    finally:
        _terminate_pool(pool)


#: Monotone sweep sequence for telemetry sweep ids (unique per process).
_sweep_seq = 0


def run_specs(
    specs: list[RunSpec],
    scale: float,
    default_cycles: float = DEFAULT_MEASURE_CYCLES,
    jobs: int = 1,
    *,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    fail_fast: bool = False,
    cache: "ResultCache | None" = None,
    telemetry=None,
) -> list[MachineResult]:
    """Simulate ``specs`` (in order) across up to ``jobs`` processes.

    Args:
        specs: The batch to run; results come back in the same order.
        scale: Study scale factor.
        default_cycles: Measurement window for specs without an override.
        jobs: Worker processes (1 runs serially in-process).
        timeout: Per-spec wall-clock limit in seconds; an over-limit spec
            is charged a timeout attempt and its worker is killed.  None
            (or a value <= 0) means no limit.  Enforced only on the pool
            path — the serial fallback has no worker to kill.
        retries: Failed attempts each spec may retry.
        backoff: Base backoff seconds; retry ``n`` sleeps
            ``backoff * 2**(n-1)``, at most :data:`MAX_RETRY_DELAY`.
        fail_fast: Abort the sweep on the first exhausted spec instead of
            finishing the rest.
        cache: A :class:`ResultCache` that receives each result the
            moment its spec finishes, so a sweep killed part way keeps
            its finished specs.  Never read here: callers look keys up
            before submitting (:meth:`Experiment.run_many` does).  None
            stores nothing.
        telemetry: A :mod:`repro.core.telemetry` recorder (or an event-log
            path) receiving per-spec JSONL lifecycle events; None is
            off.  Observability only — results are bit-identical either
            way.

    Returns:
        One :class:`MachineResult` per spec, bit-for-bit identical to a
        fault-free serial run regardless of retries or crashes.

    Raises:
        SweepError: When any spec exhausts its retries; carries the
            failure records and all completed results.

    Falls back to in-process serial execution when ``jobs <= 1``, when
    there is nothing to parallelize, or when the platform cannot start a
    process pool (restricted environments); the fallback runs the exact
    same execution path (including retries), so only wall-clock time and
    timeout enforcement change.
    """
    specs = list(specs)
    jobs = max(1, int(jobs))
    retries = max(0, int(retries))
    if timeout is not None and timeout <= 0:
        timeout = None
    backoff = max(0.0, float(backoff))
    fail_fast = bool(fail_fast)
    telem = as_recorder(telemetry)

    global _sweep_seq
    _sweep_seq += 1
    sweep = f"{os.getpid()}-{_sweep_seq}"
    sweep_t0 = time.monotonic()
    telem.emit("sweep_start", sweep=sweep, n_specs=len(specs), jobs=jobs,
               scale=scale, default_cycles=default_cycles)

    results: list[MachineResult | None] = [None] * len(specs)
    keys = [s.key(scale, default_cycles) for s in specs]
    pending = list(range(len(specs)))

    def sweep_end() -> None:
        telem.emit("sweep_end", sweep=sweep,
                   completed=sum(1 for r in results if r is not None),
                   failed=len(failures),
                   wall_s=round(time.monotonic() - sweep_t0, 6))

    failures: dict[int, SpecFailure] = {}
    if not pending:
        sweep_end()
        return results  # type: ignore[return-value]

    attempts = {i: 0 for i in pending}
    if telem.enabled:
        for i in pending:
            telem.emit("spec_queued", sweep=sweep, index=i)

    def finish(i: int, result: MachineResult, wall: float) -> None:
        results[i] = result
        if cache is not None:
            cache.put(keys[i], result, index=i)
            telem.emit("cache_store", source="sweep", index=i)
        telem.emit("spec_finished", sweep=sweep, index=i,
                   attempts=attempts[i], source="simulated",
                   wall_s=round(wall, 6))

    def attempt_failed(i: int, kind: str, message: str) -> bool:
        """The one attempt rule: charge spec ``i`` a failed attempt.
        Within ``retries`` it backs off and returns True (run it again);
        past them it records the :class:`SpecFailure` and returns False."""
        attempts[i] += 1
        if attempts[i] > retries:
            failures[i] = SpecFailure(i, specs[i], kind, attempts[i],
                                      message)
            telem.emit("spec_failed", sweep=sweep, index=i, kind=kind,
                       attempts=attempts[i], message=message)
            return False
        telem.emit("spec_retry", sweep=sweep, index=i, attempt=attempts[i],
                   kind=kind, message=message)
        delay = _retry_delay(backoff, attempts[i])
        if delay > 0:
            time.sleep(delay)
        return True

    if jobs > 1 and len(pending) > 1:
        try:
            _run_pool(specs, scale, default_cycles, pending, jobs, timeout,
                      fail_fast, attempts, finish, attempt_failed, telem,
                      sweep)
        except _PoolUnavailable:
            # No usable multiprocessing (sandboxed /dev/shm, fork
            # limits...): degrade to the serial path, retries intact.
            # Specs already finished (or failed) before the pool vanished
            # keep their outcome; only the remainder runs serially.
            remaining = [i for i in pending
                         if results[i] is None and i not in failures]
            _run_serial(specs, scale, default_cycles, remaining, fail_fast,
                        attempts, finish, attempt_failed, telem, sweep)
    else:
        _run_serial(specs, scale, default_cycles, pending, fail_fast,
                    attempts, finish, attempt_failed, telem, sweep)

    sweep_end()
    if failures:
        raise SweepError(sorted(failures.values(), key=lambda f: f.index),
                         results)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Persistent result cache                                                 #
# ---------------------------------------------------------------------- #

def _unpickle_result(payload) -> MachineResult:
    result = pickle.loads(payload)
    if not isinstance(result, MachineResult):
        raise TypeError(f"cached {type(result).__name__}, not a MachineResult")
    return result


class ResultCache(Store):
    """Content-addressed on-disk store of :class:`MachineResult` pickles.

    A codec over :class:`~repro.store.Store`, which frames, checksums,
    writes, evicts and counts (DESIGN.md §5, §9).  Entries are addressed
    by the full measurement identity (normalized config key + workload
    kind/regime/clients/mode/cycles/scale) plus a code-version ``salt``:
    changing the simulator bumps :data:`CODE_VERSION`, which re-addresses
    every entry.  A damaged, stale or wrong-type entry is a counted miss
    and no store failure propagates, so a damaged cache can only cost
    re-simulation.  ``budget_bytes`` (the ``REPRO_CACHE_BUDGET`` knob)
    makes the root an LRU.
    """

    def __init__(self, root: str, salt: str = CODE_VERSION,
                 budget_bytes: int | None = None):
        super().__init__(root, salt, ".pkl", budget_bytes)

    def get(self, key: tuple) -> MachineResult | None:
        """The cached result for ``key``, or None (miss/corrupt/stale)."""
        return self.load(key, _unpickle_result)

    def put(self, key: tuple, result: MachineResult,
            index: int | None = None) -> None:
        """Store ``result``; best-effort (failures count in ``errors``).

        ``index`` is the spec's batch position, used only by the fault
        injector's cache-corruption site.
        """
        self.save(key, result, lambda r: faults.corrupt_bytes(
            index, pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)))
