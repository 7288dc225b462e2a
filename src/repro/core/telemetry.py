"""Structured, opt-in run telemetry: JSONL events + one log summary.

The paper instruments a DBMS until every cycle is attributed; this module
applies the same discipline to the harness itself.  When enabled (the
``REPRO_TELEMETRY`` knob or the CLI ``--telemetry DIR`` flag), the sweep
executor, the experiment cache layers, and the pool workers append one
JSON object per line to a shared event log; so do the design service
(``svc_*`` events) and the contention and islands studies (one
:data:`POINT_EVENTS` event per point).  :func:`summarize` folds every
event kind in one pass into the questions an operator actually asks:
where did the wall time of a sweep go (p50/p95 spec latency, worker
utilization), how often did recovery machinery fire (retries, faults,
crashes), where did each result come from (simulated, memo, or disk
cache, by call site), how fast did the service answer and which tier
answered, and what each study point measured.  :func:`format_summary`
renders it as the ``repro stats`` report.

Design constraints, locked down by ``tests/test_telemetry*.py``:

- **Transparency.**  Telemetry observes, never steers: with the knob
  unset every hook is an inert no-op (:data:`NULL_RECORDER`), and with it
  set, results remain bit-for-bit identical — the recorder only ever
  *reads* simulation outputs.  ``CODE_VERSION`` is untouched by this
  subsystem.
- **Atomic appends.**  Every event is one ``os.write`` on an
  ``O_APPEND`` descriptor, so concurrent writers (the sweep scheduler in
  the parent, ``spec_exec`` events from pool workers) never interleave
  partial lines.  A reader tolerates a truncated tail left by a killed
  process.
- **Best-effort.**  An unwritable log costs observability, never
  correctness: write failures count in ``dropped`` and are otherwise
  swallowed.
- **Monotonic time only.**  Event timestamps and all recorded durations
  come from monotonic clocks; wall-clock time never enters a delta.

Event schema (:data:`EVENT_SCHEMA`): every event carries the envelope
``ev`` (type), ``t`` (``time.monotonic()`` seconds; on Linux comparable
across the processes of one sweep), and ``pid``; per-type payload fields
are listed in the schema table and validated by :func:`validate_event`.
"""

from __future__ import annotations

import json
import math
import os
import time

__all__ = [
    "EVENT_SCHEMA",
    "NULL_RECORDER",
    "POINT_EVENTS",
    "NullRecorder",
    "TelemetryRecorder",
    "as_recorder",
    "format_summary",
    "load_events",
    "percentile",
    "summarize",
    "telemetry_path",
    "validate_event",
]

#: Default log filename when ``REPRO_TELEMETRY``/``--telemetry`` names a
#: directory rather than a ``.jsonl`` file.
DEFAULT_LOG_NAME = "telemetry.jsonl"

#: Envelope fields present on every event.
ENVELOPE_FIELDS = ("ev", "t", "pid")

#: The documented event schema: ``ev`` -> (required fields, optional
#: fields), beyond the envelope.  ``validate_event`` enforces exactly
#: this — unknown event types or stray fields are schema violations, so
#: the log stays a contract rather than a junk drawer.
EVENT_SCHEMA: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # One sweep = one run_specs call.
    "sweep_start": (("sweep", "n_specs", "jobs", "scale",
                     "default_cycles"), ()),
    "sweep_end": (("sweep", "completed", "failed", "wall_s"), ()),
    # Per-spec lifecycle, in scheduling order.
    "spec_queued": (("sweep", "index"), ()),
    "spec_started": (("sweep", "index", "attempt"), ()),
    # Emitted by the executing process (a pool worker or the serial
    # fallback); ``profile`` is the simulator probe snapshot.
    "spec_exec": (("sweep", "index", "attempt", "wall_s"), ("profile",)),
    "spec_retry": (("sweep", "index", "attempt", "kind", "message"), ()),
    # ``source`` is always "simulated" now; logs from before the result
    # cache replaced the sweep checkpoint journal also carry
    # "checkpoint" recalls, which summarize() skips.
    "spec_finished": (("sweep", "index", "attempts", "source", "wall_s"),
                      ()),
    "spec_failed": (("sweep", "index", "kind", "attempts", "message"), ()),
    # Result-cache provenance; ``source`` attributes the call site
    # ("run", "sweep", "serve"), which the plain
    # ``ResultCache.stats()`` totals cannot.
    "cache_hit": (("source",), ("index",)),
    "cache_miss": (("source",), ("index",)),
    "cache_store": (("source",), ("index",)),
    # Design-service request log (DESIGN.md §12).  One svc_request /
    # svc_answer pair per admitted request; svc_shed records a typed
    # Overloaded rejection (the request never entered the system);
    # svc_coalesce marks a request that attached to another request's
    # in-flight computation; svc_sim_fail is one slow-tier simulation
    # that raised (answered from the model as "sim-failed").
    "svc_request": (("req", "query"), ("deadline_s",)),
    "svc_answer": (("req", "query", "tier", "wall_s"),
                   ("confidence", "degraded", "coalesced", "note")),
    "svc_shed": (("req", "pending"), ("retry_after_s",)),
    "svc_coalesce": (("req", "query", "leader"), ()),
    "svc_sim_fail": (("seq", "kind", "message"), ()),
    # Contention sweep: one event per (cc_mode, theta) point — the
    # executor's accounting plus the simulator's attributed lock-wait
    # share, so ``repro stats`` can tabulate where time went as skew
    # rose without re-running anything.
    "contention_point": (("cc_mode", "theta", "abort_rate",
                          "lock_wait_share"),
                         ("wasted_share", "commits", "aborts", "ipc")),
    # Hardware-islands sweep: one event per (camp, kind, placement)
    # cell at a socket count — throughput retained vs the single-socket
    # baseline and the remote-traffic fractions the placement paid.
    "island_point": (("sockets", "placement", "kind", "camp", "ipc"),
                     ("rel_ipc", "remote_frac", "remote_l1x")),
}

#: Per-point study events.  :func:`summarize` gives each kind one row
#: per event under ``points[kind]`` and :func:`format_summary` prints one
#: table per kind, so a new study needs a schema entry and a slot here,
#: and no new function.
POINT_EVENTS = ("contention_point", "island_point")


def telemetry_path(target: str) -> str:
    """Resolve a CLI/env target to the event-log path.

    A target ending in ``.jsonl`` is used verbatim; anything else is
    treated as a directory holding :data:`DEFAULT_LOG_NAME`.
    """
    target = str(target)
    if target.endswith(".jsonl"):
        return target
    return os.path.join(target, DEFAULT_LOG_NAME)


class NullRecorder:
    """The disabled recorder: inert, branch-free call sites.

    Instrumentation calls ``recorder.emit(...)`` unconditionally; with
    this implementation that is a no-op method call, so the disabled
    path needs no ``if telemetry:`` checks and cannot diverge from the
    enabled path's control flow.
    """

    __slots__ = ()

    enabled = False
    path = None

    def emit(self, ev: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared inert instance.
NULL_RECORDER = NullRecorder()


class TelemetryRecorder:
    """Append-only JSONL event writer (one atomic ``write`` per event).

    Safe for many processes appending to one file: the descriptor is
    opened ``O_APPEND`` and each event is serialized to a single line
    written in one syscall.  Writes are best-effort — failures increment
    ``dropped`` and never raise (an unwritable log must not fail a
    sweep).
    """

    __slots__ = ("path", "dropped", "_fd")

    enabled = True

    def __init__(self, path: str):
        self.path = str(path)
        self.dropped = 0
        self._fd: int | None = None

    def emit(self, ev: str, **fields) -> None:
        record = {"ev": ev, "t": round(time.monotonic(), 6),
                  "pid": os.getpid(), **fields}
        try:
            line = json.dumps(record, separators=(",", ":"),
                              sort_keys=True) + "\n"
            if self._fd is None:
                parent = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(parent, exist_ok=True)
                self._fd = os.open(
                    self.path,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.write(self._fd, line.encode("utf-8"))
        except (OSError, TypeError, ValueError):
            self.dropped += 1

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


def as_recorder(telemetry) -> "TelemetryRecorder | NullRecorder":
    """Coerce a knob value into a recorder.

    ``None`` is off (:data:`NULL_RECORDER`); a string/path becomes a
    :class:`TelemetryRecorder`; an existing recorder (including the null
    one) passes through.
    """
    if telemetry is None:
        return NULL_RECORDER
    if isinstance(telemetry, (str, os.PathLike)):
        return TelemetryRecorder(telemetry_path(str(telemetry)))
    return telemetry


#: Per-process recorder cache for pool workers, keyed by log path: a
#: worker executes many specs but should hold one descriptor.
_worker_recorders: dict[str, TelemetryRecorder] = {}


def worker_recorder(path: str | None):
    """The (cached) recorder a pool worker should emit through."""
    if not path:
        return NULL_RECORDER
    rec = _worker_recorders.get(path)
    if rec is None:
        rec = _worker_recorders[path] = TelemetryRecorder(path)
    return rec


# ---------------------------------------------------------------------- #
# Reading and validating                                                  #
# ---------------------------------------------------------------------- #

def validate_event(event: dict) -> None:
    """Raise ``ValueError`` unless ``event`` matches :data:`EVENT_SCHEMA`."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be an object, got {type(event).__name__}")
    ev = event.get("ev")
    if ev not in EVENT_SCHEMA:
        raise ValueError(f"unknown event type {ev!r}")
    for field in ENVELOPE_FIELDS:
        if field not in event:
            raise ValueError(f"{ev}: missing envelope field {field!r}")
    if not isinstance(event["t"], (int, float)):
        raise ValueError(f"{ev}: 't' must be numeric")
    if not isinstance(event["pid"], int):
        raise ValueError(f"{ev}: 'pid' must be an int")
    required, optional = EVENT_SCHEMA[ev]
    for field in required:
        if field not in event:
            raise ValueError(f"{ev}: missing required field {field!r}")
    allowed = set(ENVELOPE_FIELDS) | set(required) | set(optional)
    extra = set(event) - allowed
    if extra:
        raise ValueError(f"{ev}: unexpected fields {sorted(extra)}")


def load_events(path: str) -> list[dict]:
    """Parse a JSONL event log, keeping every complete line.

    A killed process can leave a truncated final line; the reader keeps
    everything before it.  Missing files read as empty logs.
    """
    events: list[dict] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return events
    with fh:
        for line in fh:
            if not line.endswith("\n"):
                break  # truncated tail
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # one mangled line must not hide the rest
            if isinstance(record, dict):
                events.append(record)
    return events


# ---------------------------------------------------------------------- #
# Aggregation                                                             #
# ---------------------------------------------------------------------- #

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the hand-checkable definition).

    ``percentile(v, 50)`` of ``[1, 2, 3, 4]`` is 2 (rank ``ceil(0.5*4)``),
    of ``[1, 2, 3]`` is 2.  Empty input returns 0.0.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(events: list[dict]) -> dict:
    """Fold an event log, every event kind in one pass, into the summary.

    Returns a plain dict (JSON-ready) with:

    - ``sweeps``/``specs``/``simulated``/``failed`` counts (a spec is
      one simulated finish or one failure; the journal recalls of older
      logs count as neither),
    - ``retries`` total plus ``retry_kinds`` (error/crash/timeout),
    - ``spec_wall_p50``/``spec_wall_p95`` over simulated spec latencies,
    - ``busy_s`` (Σ simulated spec wall of the sweeps that logged their
      ``sweep_end``), ``capacity_s`` (Σ sweep wall × jobs), and their
      ratio ``worker_utilization`` — a sweep killed before its end adds
      to neither, so the ratio cannot pass 1,
    - ``accesses`` and ``accesses_per_sec`` from worker profile
      snapshots,
    - ``batched_steps`` (event-loop steps dispatched without a heap
      round-trip) summed over the same snapshots; counters retired
      from older logs are ignored,
    - ``cache`` totals and per-call-site ``cache_by_source``,
    - ``service``: request/answer counts (answers split by tier),
      degraded/coalesced/shed totals, answer-latency percentiles
      (p50/p95/p99 over ``svc_answer.wall_s``) and slow-tier failures by
      kind — all zero for a log without service events,
    - ``points``: for each kind in :data:`POINT_EVENTS`, one row per
      event holding its schema fields (required, then optional; absent
      ones ``None``), sorted by the required fields.
    """
    jobs_by_sweep: dict[str, int] = {}
    sweep_wall: dict[str, float] = {}
    finished: list[tuple[str, float]] = []
    retry_kinds: dict[str, int] = {}
    cache_total = {"hits": 0, "misses": 0, "stores": 0}
    cache_by_source: dict[str, dict[str, int]] = {}
    counts = {"sweeps": 0, "specs": 0, "simulated": 0, "failed": 0,
              "retries": 0}
    accesses = 0
    batched_steps = 0
    exec_wall = 0.0
    service = {"requests": 0, "answers": 0, "degraded": 0,
               "coalesced": 0, "shed": 0}
    answers_by_tier: dict[str, int] = {}
    answer_walls: list[float] = []
    sim_failures: dict[str, int] = {}
    points: dict[str, list[dict]] = {kind: [] for kind in POINT_EVENTS}
    for event in events:
        ev = event.get("ev")
        if ev in points:
            required, optional = EVENT_SCHEMA[ev]
            points[ev].append(
                {field: event.get(field) for field in required + optional})
        elif ev == "sweep_start":
            counts["sweeps"] += 1
            jobs_by_sweep[event.get("sweep", "?")] = int(
                event.get("jobs", 1))
        elif ev == "sweep_end":
            sweep_wall[event.get("sweep", "?")] = float(
                event.get("wall_s", 0.0))
        elif ev == "spec_finished" and event.get("source") == "simulated":
            counts["specs"] += 1
            counts["simulated"] += 1
            finished.append((event.get("sweep", "?"),
                             float(event.get("wall_s", 0.0))))
        elif ev == "spec_failed":
            counts["specs"] += 1
            counts["failed"] += 1
        elif ev == "spec_retry":
            counts["retries"] += 1
            kind = str(event.get("kind", "?"))
            retry_kinds[kind] = retry_kinds.get(kind, 0) + 1
        elif ev == "spec_exec":
            exec_wall += float(event.get("wall_s", 0.0))
            profile = event.get("profile") or {}
            counters = profile.get("counters") or {}
            accesses += int(counters.get("data_accesses", 0))
            batched_steps += int(counters.get("batched_steps", 0))
        elif ev in ("cache_hit", "cache_miss", "cache_store"):
            bucket = {"cache_hit": "hits", "cache_miss": "misses",
                      "cache_store": "stores"}[ev]
            cache_total[bucket] += 1
            source = str(event.get("source", "?"))
            per = cache_by_source.setdefault(
                source, {"hits": 0, "misses": 0, "stores": 0})
            per[bucket] += 1
        elif ev == "svc_request":
            service["requests"] += 1
        elif ev == "svc_answer":
            service["answers"] += 1
            tier = str(event.get("tier", "?"))
            answers_by_tier[tier] = answers_by_tier.get(tier, 0) + 1
            answer_walls.append(float(event.get("wall_s", 0.0)))
            if event.get("degraded"):
                service["degraded"] += 1
            if event.get("coalesced"):
                service["coalesced"] += 1
        elif ev == "svc_shed":
            service["shed"] += 1
        elif ev == "svc_sim_fail":
            kind = str(event.get("kind", "?"))
            sim_failures[kind] = sim_failures.get(kind, 0) + 1
    spec_walls = [wall for _, wall in finished]
    busy = sum(wall for sweep, wall in finished if sweep in sweep_wall)
    capacity = sum(
        wall * jobs_by_sweep.get(sweep, 1)
        for sweep, wall in sweep_wall.items())
    summary = dict(counts)
    summary["retry_kinds"] = retry_kinds
    summary["spec_wall_p50"] = round(percentile(spec_walls, 50), 6)
    summary["spec_wall_p95"] = round(percentile(spec_walls, 95), 6)
    summary["busy_s"] = round(busy, 6)
    summary["capacity_s"] = round(capacity, 6)
    summary["worker_utilization"] = (
        round(busy / capacity, 4) if capacity > 0 else 0.0)
    summary["accesses"] = accesses
    summary["accesses_per_sec"] = (
        round(accesses / exec_wall, 3) if exec_wall > 0 else 0.0)
    summary["batched_steps"] = batched_steps
    summary["cache"] = cache_total
    summary["cache_by_source"] = cache_by_source
    service["answers_by_tier"] = answers_by_tier
    for pct in (50, 95, 99):
        service[f"answer_wall_p{pct}"] = round(
            percentile(answer_walls, pct), 6)
    service["sim_failures"] = sim_failures
    summary["service"] = service
    for kind, rows in points.items():
        required = EVENT_SCHEMA[kind][0]
        rows.sort(key=lambda row: tuple(
            (row[field] is None, row[field]) for field in required))
    summary["points"] = points
    return summary


def format_summary(summary: dict) -> str:
    """Render a :func:`summarize` dict as the ``repro stats`` report.

    The sweep lines always print; the service block only when the log
    has requests or sheds; then one table per point kind with rows,
    headed by the event's field names (``None`` prints as ``-``).
    """
    from .reporting import format_table

    lines = [
        f"sweeps:             {summary['sweeps']}",
        f"specs:              {summary['specs']} "
        f"(simulated {summary['simulated']}, "
        f"failed {summary['failed']})",
        f"retries:            {summary['retries']}"
        + (f"  {summary['retry_kinds']}" if summary["retry_kinds"] else ""),
        f"spec wall p50/p95:  {summary['spec_wall_p50']:.3f}s / "
        f"{summary['spec_wall_p95']:.3f}s",
        f"worker utilization: {summary['worker_utilization']:.1%} "
        f"(busy {summary['busy_s']:.2f}s of "
        f"{summary['capacity_s']:.2f}s capacity)",
        f"accesses:           {summary['accesses']} "
        f"({summary['accesses_per_sec']:g}/s simulated)",
    ]
    if summary.get("batched_steps"):
        lines.append(
            f"event loop:         batched steps {summary['batched_steps']}")
    cache_rows = [
        [source, per["hits"], per["misses"], per["stores"]]
        for source, per in sorted(summary["cache_by_source"].items())
    ]
    total = summary["cache"]
    if cache_rows:
        cache_rows.append(
            ["total", total["hits"], total["misses"], total["stores"]])
        lines.append("")
        lines.append(format_table(
            ["cache source", "hits", "misses", "stores"], cache_rows))
    service = summary["service"]
    if service["requests"] or service["shed"]:
        tiers = ", ".join(f"{tier} {n}" for tier, n in
                          sorted(service["answers_by_tier"].items()))
        lines += [
            "",
            f"requests:           {service['requests']} "
            f"(shed {service['shed']})",
            f"answers:            {service['answers']} ({tiers or 'none'}; "
            f"degraded {service['degraded']}, "
            f"coalesced {service['coalesced']})",
            f"answer p50/p95/p99: {service['answer_wall_p50']:.4f}s / "
            f"{service['answer_wall_p95']:.4f}s / "
            f"{service['answer_wall_p99']:.4f}s",
        ]
        if service["sim_failures"]:
            lines.append(f"sim failures:       {service['sim_failures']}")
    for kind, rows in summary["points"].items():
        if rows:
            headers = list(rows[0])
            lines.append("")
            lines.append(format_table(
                headers,
                [["-" if row[h] is None else row[h] for h in headers]
                 for row in rows],
                title=kind))
    return "\n".join(lines)
