"""`DesignService`: the async tiered query front end (DESIGN.md §12).

A :class:`DesignService` answers design/what-if queries
(:class:`~repro.serve.query.DesignQuery`) — which core camp, L2 size
and core count serve OLTP and DSS best — through three tiers, fastest
first:

1. **model** — the calibrated analytical model
   (:mod:`repro.model`), microseconds per answer, confidence
   ``screened``;
2. **cache** — the experiment memo / persistent
   :class:`~repro.core.parallel.ResultCache`, a prior simulator
   measurement recalled, confidence ``confirmed``;
3. **simulated** — a bounded background simulation queue that upgrades
   the model estimate to a fresh simulator measurement, confidence
   ``confirmed``.

Properties, each pinned by ``tests/test_serve.py``:

- **Admission control.**  At most :data:`MAX_PENDING` requests are in
  the system; the next one is rejected with a typed
  :class:`~repro.serve.query.Overloaded` carrying ``retry_after_s`` —
  the service never buffers unboundedly.
- **Coalescing.**  Identical in-flight queries share one computation:
  k concurrent submits of the same query cost one backend evaluation
  and produce k identical answers (followers marked ``coalesced``).
- **Deadlines.**  A request with ``deadline_s`` never waits longer: if
  the slow tier cannot answer in time the request falls back to the
  model tier (note ``"deadline"``) while the computation keeps running
  for later requests to reuse.
- **Model fallbacks.**  A full simulation queue answers from the model
  (note ``"sim-queue-full"``); a simulation that raises answers from
  the model marked ``degraded`` (note ``"sim-failed"``).  The
  simulation is deterministic, so it is run once, never retried.

Every admitted request is logged through :mod:`repro.core.telemetry`
(``svc_*`` events), making the event log the service's request log;
``stats()``/``health()`` expose live counters for the same facts.

Threading model: all service state lives on the event loop; only
simulation and model calibration run in the background thread executor,
and their results re-enter through the loop.  Simulation itself is the
same pure :func:`repro.core.parallel.execute` path every other consumer
uses, so served results are bit-identical to batch runs.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..core import parallel
from ..core.experiment import Experiment
from .query import (
    Answer,
    DesignQuery,
    Overloaded,
    model_payload,
    simulated_payload,
)

__all__ = ["DesignService"]

#: Bound on requests in the system (admission control).  Read at use,
#: so a test can patch it.
MAX_PENDING = 64

#: Bound on queued background simulations; a full queue answers from
#: the model tier, it never blocks.  Read when the service starts.
SIM_QUEUE_DEPTH = 8

#: Fallback retry-after advice before any answer latency is observed.
MIN_RETRY_AFTER_S = 0.05


class DesignService:
    """Async tiered design-query service over an :class:`Experiment`.

    Args:
        exp: The experiment supplying scale, memo and result cache;
            None builds a default one from the environment knobs.
        model: A pre-fitted :class:`~repro.model.calibrate.CalibratedModel`;
            None calibrates one during :meth:`start` (the expensive part
            of startup — steady-state answers are then microseconds).
        sim_workers: Background simulation consumers (and the size of
            the thread pool, plus one slot for calibration).
    """

    def __init__(self, exp: Experiment | None = None, model=None, *,
                 sim_workers: int = 1):
        if sim_workers < 1:
            raise ValueError(f"sim_workers must be >= 1, got {sim_workers}")
        self.exp = Experiment() if exp is None else exp
        self.sim_workers = int(sim_workers)
        self.telemetry = self.exp.telemetry
        self._model = model
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._sim_queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        self._compute_tasks: set[asyncio.Task] = set()
        self._inflight: dict[tuple, tuple[asyncio.Future, int]] = {}
        self._req_seq = 0
        self._sim_seq = 0
        self._pending = 0
        self._ema_wall = 0.0
        self._counts = {"requests": 0, "shed": 0, "coalesced": 0,
                        "degraded": 0, "deadline_fallbacks": 0}
        self._answers_by_tier = {"model": 0, "cache": 0, "simulated": 0}
        self._sim_stats = {"enqueued": 0, "completed": 0, "failed": 0,
                           "rejected_full": 0}

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start workers and (if needed) calibrate the model tier.

        Idempotent; implicitly awaited by the first :meth:`submit`.
        Calibration is the one expensive step — it runs the pinned
        simulator grid through the experiment's memo/cache, so a warm
        cache makes startup near-instant.
        """
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.sim_workers + 1,
            thread_name_prefix="repro-serve")
        self._sim_queue = asyncio.Queue(maxsize=SIM_QUEUE_DEPTH)
        self._workers = [self._loop.create_task(self._sim_worker())
                         for _ in range(self.sim_workers)]
        if self._model is None:
            from ..model import calibrate

            self._model = await self._loop.run_in_executor(
                self._executor, calibrate.fit, self.exp)
        self._started = True

    async def close(self) -> None:
        """Stop workers and the executor; pending futures are dropped."""
        for task in list(self._workers) + list(self._compute_tasks):
            task.cancel()
        await asyncio.gather(*self._workers, *self._compute_tasks,
                             return_exceptions=True)
        self._workers = []
        self._compute_tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._started = False

    async def __aenter__(self) -> "DesignService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def model(self):
        """The fitted model tier (None until :meth:`start` completes)."""
        return self._model

    # ------------------------------------------------------------------ #
    # The request path                                                    #
    # ------------------------------------------------------------------ #

    async def submit(self, query: DesignQuery,
                     deadline_s: float | None = None) -> Answer:
        """Answer one design query.

        Args:
            query: The question.
            deadline_s: Optional per-request latency budget in seconds;
                when it cannot be met by the slow tier the answer
                degrades to the model tier rather than waiting.

        Returns:
            An :class:`Answer` with tier/confidence provenance.

        Raises:
            Overloaded: When admission control rejects the request
                (:data:`MAX_PENDING` requests already in the system).
            ValueError: On a query the design space cannot express.
        """
        if not self._started:
            await self.start()
        req = self._req_seq = self._req_seq + 1
        if self._pending >= MAX_PENDING:
            retry_after = self._retry_after()
            self._counts["shed"] += 1
            self.telemetry.emit("svc_shed", req=req, pending=self._pending,
                                retry_after_s=round(retry_after, 6))
            raise Overloaded(retry_after, self._pending)
        t0 = time.monotonic()
        self._pending += 1
        self._counts["requests"] += 1
        self.telemetry.emit(
            "svc_request", req=req, query=query.label,
            **({} if deadline_s is None
               else {"deadline_s": round(deadline_s, 6)}))
        try:
            key = query.key()
            entry = self._inflight.get(key)
            if entry is None:
                fut: asyncio.Future = self._loop.create_future()
                self._inflight[key] = (fut, req)
                task = self._loop.create_task(
                    self._compute(query, req, key, fut))
                self._compute_tasks.add(task)
                task.add_done_callback(self._compute_tasks.discard)
                coalesced = False
            else:
                fut, leader = entry
                self._counts["coalesced"] += 1
                self.telemetry.emit("svc_coalesce", req=req,
                                    query=query.label, leader=leader)
                coalesced = True
            return await self._await_answer(query, fut, deadline_s, req,
                                            t0, coalesced)
        finally:
            self._pending -= 1

    async def _await_answer(self, query, fut, deadline_s, req, t0,
                            coalesced) -> Answer:
        """Race the shared computation against this request's deadline."""
        try:
            if deadline_s is None:
                base = await asyncio.shield(fut)
            else:
                remaining = deadline_s - (time.monotonic() - t0)
                if remaining <= 0:
                    raise asyncio.TimeoutError
                base = await asyncio.wait_for(asyncio.shield(fut),
                                              remaining)
        except (asyncio.TimeoutError, TimeoutError):
            # The shield keeps the computation alive: a later identical
            # query (or this one retried) reuses it or hits the cache.
            self._counts["deadline_fallbacks"] += 1
            prediction = self._predict(query)
            return self._account(Answer(
                query, "model", "screened", False,
                model_payload(prediction), req, time.monotonic() - t0,
                coalesced=coalesced, note="deadline"))
        wall = time.monotonic() - t0
        if coalesced:
            answer = base.as_coalesced(req, wall)
        else:
            answer = replace(base, wall_s=wall)
        return self._account(answer)

    async def _compute(self, query: DesignQuery, req: int, key: tuple,
                       fut: asyncio.Future) -> None:
        """The (single, shared) computation behind one in-flight query."""
        try:
            spec = query.spec(self.exp.scale)
            exp_key = spec.key(self.exp.scale, self.exp.measure_cycles)
            cached = self.exp._lookup(exp_key, source="serve")
            if cached is not None:
                self._resolve(fut, Answer(
                    query, "cache", "confirmed", False,
                    simulated_payload(cached), req, 0.0))
                return
            prediction = self._predict(query)
            if self._sim_queue.full():
                self._sim_stats["rejected_full"] += 1
                self._resolve(fut, Answer(
                    query, "model", "screened", False,
                    model_payload(prediction), req, 0.0,
                    note="sim-queue-full"))
                return
            seq = self._sim_seq
            self._sim_seq += 1
            sim_fut: asyncio.Future = self._loop.create_future()
            # Cannot raise QueueFull: fullness was checked above and no
            # await ran since (single-threaded event loop).
            self._sim_queue.put_nowait((seq, spec, exp_key, sim_fut))
            self._sim_stats["enqueued"] += 1
            try:
                result = await sim_fut
            except Exception:
                self._resolve(fut, Answer(
                    query, "model", "degraded", True,
                    model_payload(prediction), req, 0.0,
                    note="sim-failed"))
                return
            self._resolve(fut, Answer(
                query, "simulated", "confirmed", False,
                simulated_payload(result), req, 0.0))
        except Exception as exc:
            if not fut.done():
                fut.set_exception(exc)
        finally:
            entry = self._inflight.get(key)
            if entry is not None and entry[0] is fut:
                del self._inflight[key]

    @staticmethod
    def _resolve(fut: asyncio.Future, answer: Answer) -> None:
        if not fut.done():
            fut.set_result(answer)

    # ------------------------------------------------------------------ #
    # Tiers                                                               #
    # ------------------------------------------------------------------ #

    def _predict(self, query: DesignQuery):
        """The model tier: evaluate the calibrated model (microseconds)."""
        return self._model.predict(query.config(self.exp.scale),
                                   query.kind, query.regime,
                                   placement=query.placement)

    async def _sim_worker(self) -> None:
        """Background consumer of the bounded simulation queue.

        Each simulation runs once, on the same deterministic
        :func:`~repro.core.parallel.execute` path every batch consumer
        uses: a run that raised would raise again, so there is no retry.
        It is looked up on the module at each call, so a profiler (or a
        test) that replaces ``parallel.execute`` sees served simulations.
        """
        while True:
            seq, spec, exp_key, sim_fut = await self._sim_queue.get()
            try:
                result = await self._loop.run_in_executor(
                    self._executor, parallel.execute, spec, self.exp.scale,
                    self.exp.measure_cycles)
            except Exception as exc:
                self._sim_stats["failed"] += 1
                message = f"{type(exc).__name__}: {exc}"
                self.telemetry.emit("svc_sim_fail", seq=seq, kind="error",
                                    message=message)
                if not sim_fut.done():
                    sim_fut.set_exception(exc)
            else:
                self._sim_stats["completed"] += 1
                self.exp.sim_runs += 1
                self.exp._store(exp_key, result, source="serve")
                if not sim_fut.done():
                    sim_fut.set_result(result)
            finally:
                self._sim_queue.task_done()

    # ------------------------------------------------------------------ #
    # Accounting and introspection                                        #
    # ------------------------------------------------------------------ #

    def _account(self, answer: Answer) -> Answer:
        self._answers_by_tier[answer.tier] += 1
        if answer.degraded:
            self._counts["degraded"] += 1
        self._ema_wall = (answer.wall_s if self._ema_wall == 0.0
                          else 0.8 * self._ema_wall + 0.2 * answer.wall_s)
        self.telemetry.emit(
            "svc_answer", req=answer.req, query=answer.query.label,
            tier=answer.tier, wall_s=round(answer.wall_s, 6),
            confidence=answer.confidence, degraded=answer.degraded,
            coalesced=answer.coalesced, note=answer.note)
        return answer

    def _retry_after(self) -> float:
        """Retry advice from the recent answer-latency EMA."""
        return max(MIN_RETRY_AFTER_S, self._ema_wall)

    def stats(self) -> dict:
        """Live service counters (JSON-ready)."""
        doc = dict(self._counts)
        doc["pending"] = self._pending
        doc["max_pending"] = MAX_PENDING
        doc["answers_by_tier"] = dict(self._answers_by_tier)
        doc["answers"] = sum(self._answers_by_tier.values())
        doc["sim"] = {
            **self._sim_stats,
            "queue_depth": (0 if self._sim_queue is None
                            else self._sim_queue.qsize()),
            "queue_capacity": SIM_QUEUE_DEPTH,
        }
        doc["cache"] = self.exp.cache_stats()
        doc["model_fitted"] = self._model is not None
        return doc

    def health(self) -> dict:
        """Liveness summary (JSON-ready).

        A service that answers is live: an overloaded service sheds by
        design, and a failed simulation is answered from the model, so
        the reply's ``ok`` envelope is the liveness signal and this dict
        carries only load and readiness.
        """
        return {
            "started": self._started,
            "pending": self._pending,
            "max_pending": MAX_PENDING,
            "model_fitted": self._model is not None,
            "scale": self.exp.scale,
        }
