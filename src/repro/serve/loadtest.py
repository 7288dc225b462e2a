"""`repro bench`: latency percentiles for the service under load.

This harness asks the service-tier question the paper would ask of a
database server: *what latency distribution do concurrent clients see,
and does the service keep shedding/degrading instead of collapsing?*
It drives an in-process :class:`DesignService` with N
concurrent closed-loop clients over a fixed query mix derived from the
design-space enumeration (:func:`repro.explore.space.enumerate_candidates`
coordinates — the same entry points the explorer uses), records every
request's wall time, and reports p50/p95/p99 per outcome.

The query mix, client count, and per-client request count are pinned —
the load config is a contract; the snapshot is written as
``BENCH_LOAD.json`` by default (schema ``repro-load-v1``) and validated
by :func:`validate_load` before any write.  Absolute latencies vary
with the host, so CI treats this as a smoke test; the invariants the
schema *does* gate are structural: every request is answered or shed
with a typed rejection, answered + shed = issued, and percentile fields
are present and ordered.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import subprocess
import tempfile
import time

from ..core.experiment import Experiment
from ..core.parallel import CODE_VERSION
from ..core.telemetry import percentile
from ..explore.space import enumerate_candidates, quick_budget_mm2
from .query import DesignQuery, Overloaded
from .service import DesignService

__all__ = [
    "DEFAULT_LOAD_OUT",
    "LOAD_SCHEMA",
    "format_load",
    "run_load",
    "validate_load",
]

#: Schema version stamped into every load snapshot.
LOAD_SCHEMA = "repro-load-v1"

#: Default output filename (current directory; not a committed file).
DEFAULT_LOAD_OUT = "BENCH_LOAD.json"

#: Pinned load configuration — the load-test contract.  The mix is the
#: quick-budget candidate enumeration, so the clients ask exactly the
#: questions the explorer asks.
LOAD_CONFIG = {
    "scale": 0.02,
    "clients": 8,
    "requests_per_client": 24,
    "deadline_s": 0.25,
    "max_pending": 6,
    "sim_queue_depth": 2,
}


def _git_commit() -> str | None:
    """The current commit hash, or None outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def query_mix(scale: float) -> list[DesignQuery]:
    """The pinned request mix: design queries for every quick-budget
    candidate, both workload kinds, saturated regime."""
    queries = []
    for cand in enumerate_candidates(quick_budget_mm2()):
        for kind in ("oltp", "dss"):
            queries.append(DesignQuery(
                camp=cand.camp, cores=cand.n_cores,
                l2_mb=cand.l2_nominal_mb, banks=cand.l2_banks,
                kind=kind, regime="saturated"))
    if not queries:
        raise RuntimeError("empty load-test query mix")
    return queries


async def _client(service: DesignService, client_id: int,
                  mix: list[DesignQuery], config: dict,
                  samples: list[dict]) -> None:
    """One closed-loop client: issue requests back to back, honoring
    retry-after advice when shed."""
    for i in range(config["requests_per_client"]):
        query = mix[(client_id + i * 7) % len(mix)]
        t0 = time.perf_counter()
        try:
            answer = await service.submit(
                query, deadline_s=config["deadline_s"])
        except Overloaded as exc:
            samples.append({
                "outcome": "shed",
                "wall_s": time.perf_counter() - t0,
                "retry_after_s": exc.retry_after_s,
            })
            await asyncio.sleep(min(exc.retry_after_s, 0.05))
            continue
        samples.append({
            "outcome": "answered",
            "wall_s": time.perf_counter() - t0,
            "tier": answer.tier,
            "degraded": answer.degraded,
            "coalesced": answer.coalesced,
        })


async def _run_load_async(config: dict, exp: Experiment,
                          model=None) -> dict:
    mix = query_mix(exp.scale)
    service = DesignService(
        exp, model, max_pending=config["max_pending"],
        sim_queue_depth=config["sim_queue_depth"])
    t_fit = time.perf_counter()
    await service.start()
    fit_seconds = time.perf_counter() - t_fit
    samples: list[dict] = []
    t0 = time.perf_counter()
    try:
        await asyncio.gather(*(
            _client(service, c, mix, config, samples)
            for c in range(config["clients"])))
    finally:
        await service.close()
    wall = time.perf_counter() - t0
    answered = [s["wall_s"] for s in samples
                if s["outcome"] == "answered"]
    shed = [s for s in samples if s["outcome"] == "shed"]
    by_tier: dict[str, int] = {}
    degraded = coalesced = 0
    for s in samples:
        if s["outcome"] != "answered":
            continue
        by_tier[s["tier"]] = by_tier.get(s["tier"], 0) + 1
        degraded += bool(s["degraded"])
        coalesced += bool(s["coalesced"])
    return {
        "issued": len(samples),
        "answered": len(answered),
        "shed": len(shed),
        "wall_seconds": round(wall, 6),
        "fit_seconds": round(fit_seconds, 6),
        "throughput_rps": (round(len(answered) / wall, 3)
                           if wall > 0 else 0.0),
        "latency_p50_s": round(percentile(answered, 50), 6),
        "latency_p95_s": round(percentile(answered, 95), 6),
        "latency_p99_s": round(percentile(answered, 99), 6),
        "answers_by_tier": by_tier,
        "degraded": degraded,
        "coalesced": coalesced,
        "mix_size": len(mix),
        "service": service.stats(),
    }


def run_load(out_path: str | None = DEFAULT_LOAD_OUT,
             config: dict | None = None,
             exp: Experiment | None = None, model=None) -> dict:
    """Run the pinned closed-loop load test; write the JSON snapshot.

    Args:
        out_path: Where to write the JSON snapshot; None skips writing.
        config: Override of :data:`LOAD_CONFIG` (tests use tiny loads).
        exp: A pre-built experiment (tests inject warm caches); None
            builds one at the pinned scale with no disk cache.
        model: A pre-fitted model (tests skip recalibration); None fits
            during service startup (timed as ``fit_seconds``).

    Returns:
        The validated load record.
    """
    config = dict(LOAD_CONFIG if config is None else config)
    if exp is None:
        exp = Experiment(scale=config["scale"], use_cache=False)
    load = asyncio.run(_run_load_async(config, exp, model))
    record = {
        "schema": LOAD_SCHEMA,
        "code_version": CODE_VERSION,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": config,
        "load": load,
    }
    validate_load(record)
    if out_path:
        payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
        parent = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, out_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return record


def validate_load(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid load snapshot.

    Gates structure and conservation (answered + shed = issued, ordered
    percentiles), never absolute latency — timing is host-dependent.
    """
    if not isinstance(record, dict):
        raise ValueError("load record must be an object")
    if record.get("schema") != LOAD_SCHEMA:
        raise ValueError(
            f"schema must be {LOAD_SCHEMA!r}, got {record.get('schema')!r}")
    for field, types in (("code_version", str), ("python", str),
                         ("platform", str), ("config", dict),
                         ("load", dict)):
        if not isinstance(record.get(field), types):
            raise ValueError(f"missing or mistyped field {field!r}")
    if not (record.get("commit") is None
            or isinstance(record["commit"], str)):
        raise ValueError("'commit' must be a string or null")
    config = record["config"]
    for field in ("scale", "clients", "requests_per_client", "deadline_s",
                  "max_pending", "sim_queue_depth"):
        if field not in config:
            raise ValueError(f"config missing {field!r}")
    load = record["load"]
    for field in ("issued", "answered", "shed", "degraded", "coalesced",
                  "mix_size"):
        value = load.get(field)
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"load.{field!r} must be a non-negative int")
    for field in ("wall_seconds", "fit_seconds", "throughput_rps",
                  "latency_p50_s", "latency_p95_s", "latency_p99_s"):
        value = load.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(
                f"load.{field!r} must be a non-negative number")
    if load["answered"] + load["shed"] != load["issued"]:
        raise ValueError(
            f"conservation violated: answered ({load['answered']}) + shed "
            f"({load['shed']}) != issued ({load['issued']})")
    if load["answered"] == 0:
        raise ValueError("load test answered no requests")
    if not (load["latency_p50_s"] <= load["latency_p95_s"]
            <= load["latency_p99_s"]):
        raise ValueError("latency percentiles must be non-decreasing")
    by_tier = load.get("answers_by_tier")
    if not isinstance(by_tier, dict) or sum(by_tier.values()) != load[
            "answered"]:
        raise ValueError("answers_by_tier must partition answered")


def format_load(record: dict) -> str:
    """Human rendering of one load snapshot."""
    load = record["load"]
    config = record["config"]
    tiers = ", ".join(f"{tier}={count}" for tier, count
                      in sorted(load["answers_by_tier"].items()))
    return "\n".join([
        f"load {record['schema']}  commit "
        f"{(record['commit'] or 'unknown')[:12]}  "
        f"python {record['python']}",
        f"  {config['clients']} clients x "
        f"{config['requests_per_client']} reqs  "
        f"(deadline {config['deadline_s']:g}s, "
        f"max_pending {config['max_pending']}, "
        f"sim queue {config['sim_queue_depth']})",
        f"  issued {load['issued']}  answered {load['answered']}  "
        f"shed {load['shed']}  degraded {load['degraded']}  "
        f"coalesced {load['coalesced']}",
        f"  latency p50 {load['latency_p50_s'] * 1e3:.2f}ms  "
        f"p95 {load['latency_p95_s'] * 1e3:.2f}ms  "
        f"p99 {load['latency_p99_s'] * 1e3:.2f}ms  "
        f"({load['throughput_rps']:g} req/s, "
        f"fit {load['fit_seconds']:.2f}s)",
        f"  tiers: {tiers}",
    ])
