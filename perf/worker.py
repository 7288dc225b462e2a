"""One benchmark iteration in a fresh process: set up, run, verify.

``run.py`` starts this once per iteration, because the simulator keeps
per-process state (the warm-state memo, the workload ``lru_cache`` and
the ``_BUILT`` registry) that a second iteration in the same process
would hit.  Simulations run serially (``jobs=1``), so the iteration is one
process; the ``serve`` workload adds one simulation thread and two
loopback connections.

Usage::

    python perf/worker.py --workload NAME --work DIR [--seed N]
        [--scale 0.25] [--cycles N] [--trace] [--spans FILE] [--setup-only]

The last line of standard output is one JSON object: ``setup_s`` (from
process start to the end of set-up, imports included), ``wall_s`` (the
timed body), ``peak_rss_mb``, the operations ``attempted`` and the
``failures`` among them, the output ``digests`` that ``run.py`` checks
against ``expected.json``, workload-specific metrics, and with
``--trace`` the per-layer metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.experiment import Experiment, RunSpec  # noqa: E402
from repro.core.parallel import CODE_VERSION  # noqa: E402
from repro.explore.explorer import explore  # noqa: E402
from repro.explore.space import (  # noqa: E402
    enumerate_candidates,
    quick_budget_mm2,
)
from repro.model import calibrate  # noqa: E402
from repro.serve.query import DesignQuery  # noqa: E402
from repro.serve.server import DesignServer  # noqa: E402
from repro.serve.service import DesignService  # noqa: E402
from repro.simulator.configs import (  # noqa: E402
    FIG6_L2_SIZES_MB,
    fc_cmp,
    lc_cmp,
)
from repro.simulator.machine import DEFAULT_MEASURE_CYCLES  # noqa: E402
from repro.simulator.topology import IslandTopology  # noqa: E402
from repro.workloads import driver  # noqa: E402
from repro.workloads.contention import SkewSpec  # noqa: E402

#: The study scale every workload runs at (ROADMAP: "study scale").
STUDY_SCALE = 0.25

#: serve: connections, and how many times each asks its own queries.
SERVE_CONNECTIONS = 2
SERVE_ROUNDS = 10


def digest(doc) -> str:
    """SHA-256 of the canonical JSON form of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the rank ``round(q * (n - 1))``)."""
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))]


@dataclass
class Context:
    """What one iteration knows and records."""

    scale: float
    cycles: float
    seed: int
    work: Path
    setup_only: bool = False
    setup_s: float | None = None
    wall_s: float | None = None
    ops: set = field(default_factory=set)
    failures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    definition: dict = field(default_factory=dict)
    screen_s: float = 0.0
    _body_t0: float = 0.0

    def experiment(self, **kwargs) -> Experiment:
        return Experiment(scale=self.scale, measure_cycles=self.cycles,
                          **kwargs)

    def setup_done(self) -> None:
        now = time.perf_counter()
        self.setup_s = now - T0
        self._body_t0 = now

    def body_done(self) -> None:
        self.wall_s = time.perf_counter() - self._body_t0

    def check(self, op: str, ok: bool, message: str) -> None:
        """Count ``op`` as attempted; record ``message`` if it failed."""
        self.ops.add(op)
        if not ok:
            self.failures.setdefault(op, message)


# ---------------------------------------------------------------------- #
# oltp-sweep / dss-sweep                                                   #
# ---------------------------------------------------------------------- #

def sweep_specs(kind: str, scale: float) -> list[RunSpec]:
    """Fig. 6's grid (FC and LC 4-core CMP x six L2 sizes) plus one
    special point: skewed TPC-C for OLTP, a 2-socket island-partitioned
    LC chip for DSS."""
    specs = [RunSpec(build(4, mb, scale=scale), kind)
             for build in (fc_cmp, lc_cmp) for mb in FIG6_L2_SIZES_MB]
    if kind == "oltp":
        specs.append(RunSpec(fc_cmp(4, 16.0, scale=scale), kind,
                             skew=SkewSpec(theta=0.9)))
    else:
        specs.append(RunSpec(lc_cmp(4, 16.0, scale=scale), kind,
                             topology=IslandTopology(n_sockets=2),
                             placement="island-partitioned"))
    return specs


def cell_id(spec: RunSpec) -> str:
    tag = ""
    if spec.contended:
        tag = f" @{spec.skew.describe()}-{spec.cc_mode}"
    elif spec.islands:
        tag = f" @{spec.placement}"
    return f"{spec.kind}/{spec.config.name}{tag}"


def run_sweep(ctx: Context, kind: str) -> None:
    specs = sweep_specs(kind, ctx.scale)
    random.Random(ctx.seed).shuffle(specs)
    cache_dir = str(ctx.work / "cache")
    ctx.definition = {"scale": ctx.scale, "cycles": ctx.cycles,
                      "cells": sorted(cell_id(s) for s in specs)}
    ctx.setup_done()
    if ctx.setup_only:
        return
    exp = ctx.experiment(cache_dir=cache_dir)
    results = exp.run_many(specs, jobs=1)
    reread = ctx.experiment(cache_dir=cache_dir)
    again = reread.run_many(specs, jobs=1)
    ctx.body_done()
    for spec, first, second in zip(specs, results, again):
        cell = cell_id(spec)
        ctx.digests[cell] = digest(first.to_dict())
        ctx.check(f"sim:{cell}", first.retired > 0,
                  "no instructions retired")
        ctx.check(f"reread:{cell}",
                  digest(second.to_dict()) == ctx.digests[cell]
                  and reread.sim_runs == 0,
                  f"re-read differs or simulated ({reread.sim_runs} runs)")


# ---------------------------------------------------------------------- #
# explore-quick                                                            #
# ---------------------------------------------------------------------- #

def run_explore(ctx: Context) -> None:
    # Fill a scratch trace store with the four bundles, then forget the
    # in-process copies: the timed explore loads bundles from the store,
    # as the dev/CI loop does after a simulator change.
    os.environ["REPRO_TRACE_DIR"] = str(ctx.work / "traces")
    for kind in ("oltp", "dss"):
        for regime in ("saturated", "unsaturated"):
            driver.workload_for(kind, regime, ctx.scale)
    driver.clear_workload_caches()
    exp = ctx.experiment(cache_dir=str(ctx.work / "cache"))
    ctx.definition = {"scale": ctx.scale, "cycles": ctx.cycles,
                      "quick": True, "jobs": 1}
    ctx.setup_done()
    if ctx.setup_only:
        return
    report = explore(exp, quick=True, jobs=1)
    ctx.body_done()
    for group, rows in (("confirmed", report.confirmed),
                        ("unsaturated", report.unsaturated)):
        for row in rows:
            key = f"{group}:{row.kind}:{row.label}"
            ctx.digests[key] = digest(asdict(row))
            ctx.check(key, row.measured > 0, "empty measurement")
    for name, ok in report.checks.items():
        ctx.check(f"check:{name}", ok, "equal-area claim failed")
    ctx.digests["checks"] = digest(report.checks)
    mae = report.validation.mae
    ctx.digests["mae"] = digest(mae)
    ctx.digests["sim_runs"] = digest(exp.sim_runs)
    ctx.check("mae", mae <= report.validation.bound,
              f"held-out MAE {mae:.1%} over bound")
    ctx.metrics["model_mae_pct"] = mae * 100
    ctx.screen_s = report.screen_seconds


# ---------------------------------------------------------------------- #
# serve                                                                    #
# ---------------------------------------------------------------------- #

def serve_pool() -> list[DesignQuery]:
    """Twenty saturated design queries, one per (camp, cores, kind) of
    the quick budget, each at that chip's median L2 size, 4 banks.

    None is a calibration point, so each query's first answer is a
    simulation and every repeat a cache hit.
    """
    sizes: dict[tuple[str, int], set] = {}
    for cand in enumerate_candidates(quick_budget_mm2()):
        sizes.setdefault((cand.camp, cand.n_cores), set()).add(
            cand.l2_nominal_mb)
    pool = []
    for (camp, cores), mbs in sorted(sizes.items()):
        ordered = sorted(mbs)
        l2 = ordered[(len(ordered) - 1) // 2]
        for kind in ("oltp", "dss"):
            pool.append(DesignQuery(camp, cores, l2, 4, kind))
    return pool


async def _connection(port: int, queries: list[DesignQuery],
                      rounds: int) -> list[tuple[DesignQuery, float, dict]]:
    """One closed-loop JSON-lines client: the next request goes out when
    the previous reply is in; no deadline."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    out = []
    try:
        for _ in range(rounds):
            for query in queries:
                line = json.dumps({"op": "query", "query": query.to_dict()})
                t0 = time.perf_counter()
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                out.append((query, time.perf_counter() - t0, reply))
    finally:
        writer.close()
        await writer.wait_closed()
    return out


async def _serve(ctx: Context) -> None:
    pool = serve_pool()
    random.Random(ctx.seed).shuffle(pool)
    per = len(pool) // SERVE_CONNECTIONS
    split = [pool[i * per:(i + 1) * per] for i in range(SERVE_CONNECTIONS)]
    exp = ctx.experiment(use_cache=False)
    model = calibrate.fit(exp)
    service = DesignService(exp, model, sim_workers=1)
    server = DesignServer(service, "127.0.0.1", 0)
    await server.start()
    ctx.definition = {"scale": ctx.scale, "cycles": ctx.cycles,
                      "queries": sorted(q.label for q in pool),
                      "connections": SERVE_CONNECTIONS,
                      "rounds": SERVE_ROUNDS}
    try:
        ctx.setup_done()
        if ctx.setup_only:
            return
        replies = await asyncio.gather(*(
            _connection(server.port, queries, SERVE_ROUNDS)
            for queries in split))
        ctx.body_done()
        stats = service.stats()
    finally:
        await server.close()
    # Each connection asks its own queries, so the first answer to a
    # query is always simulated and every repeat is a cache hit.
    first: dict[str, dict] = {}
    seen: dict[str, int] = {}
    for rows in replies:
        for query, _, reply in rows:
            label = query.label
            n = seen[label] = seen.get(label, -1) + 1
            op = f"req:{label}:{n}"
            if not reply.get("ok"):
                ctx.check(op, False, f"error reply {reply!r}"[:200])
                continue
            answer = reply["answer"]
            if n == 0:
                first[label] = answer["payload"]
                ctx.digests[f"query:{label}"] = digest(answer["payload"])
                ok = answer["tier"] == "simulated"
            else:
                ok = (answer["tier"] == "cache"
                      and answer["payload"] == first.get(label))
            ctx.check(op, ok and not answer["coalesced"],
                      f"answer {n} from tier {answer['tier']} (coalesced "
                      f"{answer['coalesced']}) or payload differs from the "
                      "simulated answer")
    if stats["shed"] or stats["coalesced"]:
        ctx.failures["stats"] = (f"shed {stats['shed']}, "
                                 f"coalesced {stats['coalesced']}")
    walls = [wall for rows in replies for _, wall, _ in rows]
    ctx.metrics["answer_p95_ms"] = percentile(walls, 0.95) * 1e3


def run_serve(ctx: Context) -> None:
    asyncio.run(_serve(ctx))


WORKLOADS = {
    "oltp-sweep": lambda ctx: run_sweep(ctx, "oltp"),
    "dss-sweep": lambda ctx: run_sweep(ctx, "dss"),
    "explore-quick": run_explore,
    "serve": run_serve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path,
                        help="scratch directory for caches and stores")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=STUDY_SCALE)
    parser.add_argument("--cycles", type=float,
                        default=DEFAULT_MEASURE_CYCLES,
                        help="measurement window (reduced in the tests)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path,
                        help="write the traced run's spans here (JSONL)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    if any(args.work.iterdir()):
        # Caches and stores must start empty, or the run measures hits.
        parser.error(f"work directory {args.work} is not empty")
    ctx = Context(scale=args.scale, cycles=args.cycles, seed=args.seed,
                  work=args.work, setup_only=args.setup_only)
    tracer = None
    if args.trace:
        import layers
        from trace import Tracer

        tracer = Tracer()
        layers.instrument(tracer)
    try:
        WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "code_version": CODE_VERSION,
        "definition": ctx.definition,
        "setup_s": ctx.setup_s,
        "wall_s": ctx.wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ctx.ops),
        "failures": ctx.failures,
        "digests": ctx.digests,
        "metrics": ctx.metrics,
    }
    if tracer is not None:
        doc["layers"] = layers.layer_metrics(tracer.spans, ctx.screen_s)
        if args.spans is not None:
            tracer.write_jsonl(args.spans)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
