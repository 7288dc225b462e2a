"""Parameter sweeps behind Figures 2, 6 and 8, and the two studies
beyond the paper.

The figure sweeps return plain ``(x, MachineResult)`` pairs; the
registry (:mod:`repro.core.claims`) and the benchmark harness turn them
into the paper's series.  The contention and hardware-islands sweeps
return richer points, and :func:`contention_text` and
:func:`islands_text` render them as ``repro sweep`` prints them.

Sweeps are batch-submitted through :meth:`Experiment.run_many`, so with
``REPRO_JOBS > 1`` (or an explicit ``jobs`` argument) the points simulate
concurrently across a process pool; results are identical to the serial
path either way (see ``tests/test_parallel_determinism.py``).

The resilience knobs (per-spec timeout, bounded retries, fail-fast)
come from the experiment's :class:`~repro.settings.Settings`
(``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_FAIL_FAST``, or the
CLI flags), so one flag reaches every grid (see DESIGN.md §6).  Each
finished point lands in the experiment's result cache at once, so a
killed sweep rerun on the same cache simulates only the rest.  The
experiment's telemetry recorder receives per-spec JSONL lifecycle
events for the whole grid, and the contention and islands sweeps add one
``*_point`` event per point — observability only, results are identical
either way (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulator.configs import FIG6_L2_SIZES_MB, fc_cmp, lc_cmp
from ..simulator.machine import MachineResult
from ..simulator.topology import PLACEMENTS, IslandTopology
from ..workloads.contention import (
    ContentionResult,
    SkewSpec,
    simulate_contention,
)
from .experiment import Experiment
from .parallel import RunSpec
from .reporting import format_table


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the swept value and its measurement."""

    x: float
    result: MachineResult


def cache_size_sweep(
    exp: Experiment,
    kind: str,
    sizes_mb: tuple[float, ...] = FIG6_L2_SIZES_MB,
    const_latency: int | None = None,
    n_cores: int = 4,
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Fig. 6 sweep: saturated throughput vs. shared-L2 size on the FC CMP.

    Args:
        exp: The experiment context (fixes scale and memoization).
        kind: ``"oltp"`` or ``"dss"``.
        sizes_mb: Nominal L2 capacities to sweep.
        const_latency: Fix the hit latency (the paper's "const" curves);
            None uses the Cacti model per size ("real" curves).
        n_cores: Cores on the CMP (4 in the paper's Fig. 6).
        jobs: Worker processes (None = the experiment's ``jobs``
            setting).
    """
    configs = [
        fc_cmp(
            n_cores=n_cores,
            l2_nominal_mb=size,
            scale=exp.scale,
            const_latency=const_latency,
        )
        for size in sizes_mb
    ]
    results = exp.run_many(
        [RunSpec(config, kind) for config in configs], jobs=jobs)
    return [SweepPoint(x=size, result=result)
            for size, result in zip(sizes_mb, results)]


def core_count_sweep(
    exp: Experiment,
    kind: str,
    core_counts: tuple[int, ...] = (4, 8, 12, 16),
    l2_nominal_mb: float = 16.0,
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Fig. 8 sweep: saturated throughput vs. core count at a fixed 16 MB
    shared L2 on the FC CMP."""
    configs = [
        fc_cmp(n_cores=n, l2_nominal_mb=l2_nominal_mb, scale=exp.scale)
        for n in core_counts
    ]
    results = exp.run_many(
        [RunSpec(config, kind) for config in configs], jobs=jobs)
    return [SweepPoint(x=float(n), result=result)
            for n, result in zip(core_counts, results)]


def client_count_sweep(
    exp: Experiment,
    kind: str = "dss",
    client_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
    l2_nominal_mb: float = 26.0,
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Fig. 2 sweep: throughput vs. concurrent clients on the FC CMP.

    Small client counts leave hardware contexts idle (unsaturated);
    increasing clients first fills the machine, then over-commits it.
    """
    config = fc_cmp(l2_nominal_mb=l2_nominal_mb, scale=exp.scale)
    results = exp.run_many(
        [RunSpec(config, kind, "saturated", n_clients=n)
         for n in client_counts], jobs=jobs)
    return [SweepPoint(x=float(n), result=result)
            for n, result in zip(client_counts, results)]


@dataclass(frozen=True)
class ContentionPoint:
    """One contention-sweep sample under one CC mode.

    Attributes:
        theta: Zipfian exponent the point ran at.
        cc_mode: ``"2pl"`` or ``"partitioned"``.
        result: The simulator measurement over the skewed traces, with
            ``breakdown.lock_wait`` filled in from the executor (see
            :func:`contention_sweep`).
        contention: The logical executor's accounting (aborts, lock-wait
            and wasted-work shares, the committed schedule).
    """

    theta: float
    cc_mode: str
    result: MachineResult
    contention: ContentionResult


#: Default Zipf exponents for the contention sweep: uniform, moderate
#: (YCSB's "zipfian" neighborhood), and pathological.
CONTENTION_THETAS = (0.0, 0.6, 0.9, 1.2)

#: Concurrency-control overhead is capped at this share of busy time
#: when folding executor accounting into the breakdown (a share of 1.0
#: would divide by zero; real systems saturate below it).
_MAX_CC_SHARE = 0.95


def contention_sweep(
    exp: Experiment,
    thetas: tuple[float, ...] = CONTENTION_THETAS,
    cc_modes: tuple[str, ...] = ("2pl", "partitioned"),
    hot_warehouses: int | None = None,
    cross_rate: float | None = None,
    n_cores: int = 4,
    l2_nominal_mb: float = 16.0,
    n_clients: int | None = None,
    jobs: int | None = None,
) -> list[ContentionPoint]:
    """Where time goes as contention rises, per CC camp.

    For every (theta, cc_mode) pair this runs two measurements and
    composes them:

    1. The simulator over skewed traces — real data-stall and coherence
       changes from the hotter reference stream (trace generation runs
       clients serially, so lock conflicts cannot appear here).
    2. The logical interleaved executor
       (:func:`repro.workloads.contention.simulate_contention`) — the
       same seeded transaction stream executed with genuine per-op
       interleaving under the chosen CC mode, yielding abort counts and
       lock-wait/wasted-work shares.

    The executor's concurrency-control share ``s`` (lock-wait plus
    aborted-attempt rework) is folded into each point's breakdown as
    ``lock_wait = busy * s / (1 - s)``, so ``lock_wait / busy`` equals
    ``s`` afterwards and the existing components keep their relative
    proportions.  Results recalled from the cache are copied before the
    fold — cached entries stay exactly as the simulator wrote them.
    """
    points = []
    specs = []
    for cc_mode in cc_modes:
        for theta in thetas:
            skew = SkewSpec(theta=theta, hot_warehouses=hot_warehouses,
                            cross_rate=cross_rate)
            specs.append((theta, cc_mode, skew, RunSpec(
                fc_cmp(n_cores=n_cores, l2_nominal_mb=l2_nominal_mb,
                       scale=exp.scale),
                "oltp", "saturated", n_clients=n_clients,
                skew=skew, cc_mode=cc_mode)))
    results = exp.run_many([spec for _, _, _, spec in specs], jobs=jobs)
    for (theta, cc_mode, skew, _), result in zip(specs, results):
        contention = simulate_contention(
            scale=exp.scale, skew=skew, cc_mode=cc_mode)
        share = min(contention.lock_wait_share + contention.wasted_share,
                    _MAX_CC_SHARE)
        # Copy before mutating: the memo/cache own the original.
        attributed = MachineResult.from_dict(result.to_dict())
        attributed.breakdown.lock_wait = (
            attributed.breakdown.busy * share / (1.0 - share))
        attributed.extras["contention"] = {
            "theta": theta,
            "cc_mode": cc_mode,
            "abort_rate": contention.abort_rate,
            "lock_wait_share": contention.lock_wait_share,
            "wasted_share": contention.wasted_share,
        }
        exp.telemetry.emit(
            "contention_point", theta=theta, cc_mode=cc_mode,
            abort_rate=round(contention.abort_rate, 6),
            lock_wait_share=round(contention.lock_wait_share, 6),
            wasted_share=round(contention.wasted_share, 6),
            commits=contention.commits, aborts=contention.aborts,
            ipc=round(attributed.ipc, 6))
        points.append(ContentionPoint(theta=theta, cc_mode=cc_mode,
                                      result=attributed,
                                      contention=contention))
    return points


def contention_text(exp: Experiment, **sweep) -> str:
    """Contention study: where time goes as skew rises, per CC camp.

    The dimension the paper never measured (it fixed uniform TPC-C
    traffic): as Zipfian skew concentrates the reference stream, the
    lock-based camp loses time to lock waits and aborted-attempt rework
    while the partitioned camp trades them for cross-partition idling —
    and the cache-side components shift underneath both.  Runs
    :func:`contention_sweep` with ``sweep``'s arguments and renders one
    table per CC mode, rows over theta, showing the executor's
    accounting next to the attributed busy-time view.
    """
    points = contention_sweep(exp, **sweep)
    parts, trends = [], []
    for cc_mode in dict.fromkeys(p.cc_mode for p in points):
        series = [p for p in points if p.cc_mode == cc_mode]
        views = [p.result.breakdown.contention_view() for p in series]
        parts.append(format_table(
            ["theta", "abort rate", "lock-wait", "D-stalls", "coherence",
             "comp", "IPC"],
            [[f"{p.theta:g}", f"{p.contention.abort_rate:.3f}",
              f"{view['lock_wait']:.0%}", f"{view['d_stalls']:.0%}",
              f"{view['coherence']:.0%}", f"{view['computation']:.0%}",
              f"{p.result.ipc:.2f}"] for p, view in zip(series, views)],
            title=f"Contention attribution — cc_mode={cc_mode} "
                  "(busy-time shares)",
        ))
        trends.append(
            f"{cc_mode}: lock-wait {views[0]['lock_wait']:.0%} -> "
            f"{views[-1]['lock_wait']:.0%}, abort rate "
            f"{series[0].contention.abort_rate:.3f} -> "
            f"{series[-1].contention.abort_rate:.3f} "
            f"across theta {series[0].theta:g}..{series[-1].theta:g}")
    return "\n\n".join(parts + ["\n".join(trends)])


@dataclass
class IslandPoint:
    """One hardware-islands sample: a (camp, kind, placement) cell at a
    socket count, paired with its single-socket baseline chip.

    Attributes:
        sockets: Socket count the measurement ran at.
        placement: Deployment placement
            (:data:`repro.simulator.topology.PLACEMENTS`).
        kind: Workload kind.
        camp: Core camp ("fc" / "lc").
        result: The islands measurement.
        baseline: The same chip (cores, L2) at one socket.
    """

    sockets: int
    placement: str
    kind: str
    camp: str
    result: MachineResult
    baseline: MachineResult

    @property
    def rel_ipc(self) -> float:
        """Throughput relative to the single-socket baseline."""
        return self.result.ipc / self.baseline.ipc if self.baseline.ipc \
            else 0.0

    @property
    def remote_fraction(self) -> float:
        """Fraction of L2-port data accesses with a remote home island."""
        hs = self.result.hier_stats
        port = hs.data_level_counts[2] + hs.data_level_counts[3]
        return hs.remote_accesses / port if port else 0.0


def islands_sweep(
    exp: Experiment,
    sockets: int = 2,
    placements: tuple[str, ...] = PLACEMENTS,
    kinds: tuple[str, ...] = ("oltp", "dss"),
    camps: tuple[str, ...] = ("fc", "lc"),
    n_cores: int = 4,
    l2_nominal_mb: float = 16.0,
    remote_l2_latency: float = 3.0,
    remote_mem_latency: float = 1.5,
    jobs: int | None = None,
) -> list[IslandPoint]:
    """The placement study: what each deployment costs at ``sockets``.

    Runs every (camp, kind, placement) cell on the islands chip plus one
    single-socket baseline per (camp, kind) — same cores, same L2 — and
    pairs them, so each point reads directly as "throughput retained and
    remote traffic paid under this placement".  One ``island_point``
    telemetry event is emitted per islands cell.
    """
    topo = IslandTopology(n_sockets=sockets,
                          remote_l2_latency=remote_l2_latency,
                          remote_mem_latency=remote_mem_latency)
    builders = {"fc": fc_cmp, "lc": lc_cmp}
    base_specs = {}
    cells = []
    for camp in camps:
        build = builders[camp]
        base_specs[camp] = {
            kind: RunSpec(
                build(n_cores=n_cores, l2_nominal_mb=l2_nominal_mb,
                      scale=exp.scale), kind, "saturated")
            for kind in kinds}
        island_config = build(n_cores=n_cores, l2_nominal_mb=l2_nominal_mb,
                              scale=exp.scale, topology=topo)
        for kind in kinds:
            for placement in placements:
                cells.append((camp, kind, placement, RunSpec(
                    island_config, kind, "saturated",
                    placement=placement)))
    specs = [spec for camp in camps for spec in base_specs[camp].values()]
    specs += [spec for _, _, _, spec in cells]
    results = exp.run_many(specs, jobs=jobs)
    by_spec = dict(zip([id(s) for s in specs], results))
    baselines = {
        (camp, kind): by_spec[id(base_specs[camp][kind])]
        for camp in camps for kind in kinds}
    points = []
    for camp, kind, placement, spec in cells:
        point = IslandPoint(
            sockets=sockets, placement=placement, kind=kind, camp=camp,
            result=by_spec[id(spec)], baseline=baselines[(camp, kind)])
        exp.telemetry.emit(
            "island_point", sockets=sockets, placement=placement,
            kind=kind, camp=camp, ipc=round(point.result.ipc, 6),
            rel_ipc=round(point.rel_ipc, 6),
            remote_frac=round(point.remote_fraction, 6),
            remote_l1x=point.result.hier_stats.remote_l1x)
        points.append(point)
    return points


def islands_text(exp: Experiment, sockets: int = 2,
                 remote_l2_latency: float = 3.0,
                 remote_mem_latency: float = 1.5, **sweep) -> str:
    """Hardware-islands study: what each deployment placement costs.

    Another dimension the paper never measured (it assumed one chip):
    on a multi-socket machine whose cross-socket L2/memory paths cost a
    multiple of the local ones, the placement of clients and data
    decides how much of the single-chip throughput survives.  Runs
    :func:`islands_sweep` and renders one table per workload kind, rows
    over (camp, placement), showing throughput retained against the
    same chip at one socket and the remote-traffic fractions each
    placement paid (Porobic et al., PAPERS.md).
    """
    points = islands_sweep(exp, sockets=sockets,
                           remote_l2_latency=remote_l2_latency,
                           remote_mem_latency=remote_mem_latency, **sweep)
    parts, trends = [], []
    for kind in dict.fromkeys(p.kind for p in points):
        series = [p for p in points if p.kind == kind]
        parts.append(format_table(
            ["camp", "placement", "IPC", "1s IPC", "retained", "remote",
             "remote L1X"],
            [[p.camp.upper(), p.placement, f"{p.result.ipc:.2f}",
              f"{p.baseline.ipc:.2f}", f"{p.rel_ipc:.0%}",
              f"{p.remote_fraction:.0%}", f"{p.result.hier_stats.remote_l1x}"]
             for p in series],
            title=f"Hardware islands — {kind} at {sockets} sockets "
                  f"(remote L2 x{remote_l2_latency:g}, "
                  f"mem x{remote_mem_latency:g})",
        ))
        best = max(series, key=lambda p: p.rel_ipc)
        worst = min(series, key=lambda p: p.rel_ipc)
        trends.append(
            f"{kind}: best placement {best.placement} ({best.camp}) "
            f"retains {best.rel_ipc:.0%}; worst {worst.placement} "
            f"({worst.camp}) retains {worst.rel_ipc:.0%}")
    return "\n\n".join(parts + ["\n".join(trends)])
