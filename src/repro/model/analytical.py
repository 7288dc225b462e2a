"""The model equations: CPI stack, M/D/1 queueing, processor sharing.

Everything in this module is a pure function of a calibrated
:class:`Signature` and a :class:`~repro.simulator.machine.MachineConfig`
— no simulation, no I/O — so the sanity properties (monotonicity in L2
latency and miss ratio, the processor-sharing throughput bound, graceful
queueing degradation) are directly unit-testable.

Per-thread CPI (DESIGN.md §10.1)::

    CPI(s) = comp + other + i_mem
           + a_i(s) * (lat + wq)                          # L1I refills
           + apki * f_l2(s)  * a_l2(s)  * (lat + wq)      # L2-hit data
           + apki * f_mem(s) * a_mem(s) * (lat + wq + mem) # off-chip data
           + resid(s)                                      # L1-to-L1, coh.

where ``lat`` is the (Cacti-derived or overridden) L2 hit latency, ``wq``
the mean L2 bank-queue wait, ``f_*`` the measured per-reference service
fractions, and ``a_*`` calibrated *exposure* factors — the fraction of
each access's latency the core cannot hide (fat camp: out-of-order
overlap + MLP; lean camp: hit-under-miss).  All size-dependent terms are
piecewise-linear in log2(L2 size) between calibration points.

Throughput closes a fixed point through the queueing term: chip IPC sets
the L2 port arrival rate, which sets utilization, which sets ``wq``,
which feeds back into CPI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..simulator.machine import MachineConfig
from ..simulator.topology import (
    DEFAULT_PLACEMENT,
    IslandTopology,
    check_placement,
)

#: Utilization clamp for the M/D/1 term.  The closed form diverges as
#: rho -> 1; a real bank saturates instead (arrivals are elastic — cores
#: stall, slowing issue).  Clamping keeps the fixed point finite and the
#: degradation graceful, which is also what the simulator's bank model
#: exhibits (back-pressure, not unbounded queues).
RHO_CAP = 0.98

#: Fixed-point iteration limits for the throughput <-> queueing loop.
_FP_ITERS = 100
_FP_TOL = 1e-9
_FP_DAMP = 0.5


def md1_wait(rho: float, service: float) -> float:
    """Mean M/D/1 queueing delay for utilization ``rho`` and a
    deterministic service time ``service``: ``rho * D / (2 * (1 - rho))``.

    Utilization is clamped to :data:`RHO_CAP`, so the term grows
    monotonically and saturates instead of dividing by zero as
    ``rho -> 1``; negative inputs mean "idle" and cost nothing.
    """
    if service <= 0.0 or rho <= 0.0:
        return 0.0
    rho = min(rho, RHO_CAP)
    return rho * service / (2.0 * (1.0 - rho))


def processor_sharing_ipc(n_contexts: int, work_cpi: float,
                          stall_cpi: float) -> float:
    """Per-core IPC of a fine-grained multithreaded (lean) core.

    ``min(k / (W + S), 1 / W)``: with ``k`` contexts each needing ``W``
    issue cycles and ``S`` stall cycles per instruction, throughput is
    linear in ``k`` while stalls dominate, and capped at the issue rate
    ``1/W`` once enough contexts exist to hide every stall.  The cap
    makes the bound structural: the result never exceeds
    ``k * (single-context IPC)`` = ``k / (W + S)``.
    """
    if work_cpi <= 0.0:
        raise ValueError(f"work_cpi must be positive, got {work_cpi}")
    k = max(1, int(n_contexts))
    stall = max(0.0, stall_cpi)
    return min(k / (work_cpi + stall), 1.0 / work_cpi)


@dataclass(frozen=True)
class StallPoint:
    """Calibrated stall structure at one L2 size (one calibration run).

    Attributes:
        l2_nominal_mb: The L2 size this point was measured at.
        l2_fraction: Data references served by an L2 hit (per reference).
        mem_fraction: Data references served off-chip.
        alpha_i: Exposed L1I-refill cycles per instruction per cycle of
            effective L2 latency.
        alpha_l2: Exposed fraction of ``lat + wq`` per L2-hit access.
        alpha_mem: Exposed fraction of ``lat + wq + mem`` per off-chip
            access.
        resid_cpi: Size-invariant exposed stalls (L1-to-L1 transfers,
            coherence) folded in as a constant.
        queue_wait: Measured mean L2 bank wait (fixed-point seed).
        correction: Measured/modelled throughput ratio at this point —
            the model reproduces its calibration runs exactly and
            interpolates the correction between them.
    """

    l2_nominal_mb: float
    l2_fraction: float
    mem_fraction: float
    alpha_i: float
    alpha_l2: float
    alpha_mem: float
    resid_cpi: float
    queue_wait: float
    correction: float = 1.0


@dataclass(frozen=True)
class Signature:
    """Measured + calibrated workload signature for one
    (kind, camp, regime) cell.

    Attributes:
        kind: Workload kind ("oltp" / "dss").
        camp: Core camp ("fc" / "lc").
        regime: "saturated" (throughput) or "unsaturated" (response).
        n_contexts: Hardware contexts per core of the calibration camp.
        comp_cpi: Computation cycles per instruction (issue work).
        other_cpi: Branch/other pipeline cycles per instruction (work).
        i_mem_cpi: Off-chip instruction-fetch stall per instruction
            (size-invariant: the hot code set fits in any studied L2).
        apki: Data-cache references per instruction.
        ipki_port: Off-L1 instruction fetches per instruction.
        instructions: Instructions in one response-mode pass (0 for
            saturated signatures).
        n_clients: Client traces in the calibration workload bundle.  A
            chip with more hardware contexts than clients runs the
            surplus empty — the prediction places clients round-robin
            across cores exactly like ``Machine._assign`` and sums
            per-core throughput over the *occupied* context counts.
        points: Calibration points, sorted by L2 size.
    """

    kind: str
    camp: str
    regime: str
    n_contexts: int
    comp_cpi: float
    other_cpi: float
    i_mem_cpi: float
    apki: float
    ipki_port: float
    instructions: int
    n_clients: int
    points: tuple[StallPoint, ...]

    def at(self, l2_nominal_mb: float) -> StallPoint:
        """The stall structure at ``l2_nominal_mb``, piecewise-linear in
        log2(size) between calibration points and clamped at the ends
        (the explorer never extrapolates miss curves)."""
        return interpolate(self.points, l2_nominal_mb)

    @property
    def work_cpi(self) -> float:
        """Issue-occupancy cycles per instruction (the ``W`` of the
        processor-sharing term)."""
        return self.comp_cpi + self.other_cpi


def interpolate(points: tuple[StallPoint, ...],
                l2_nominal_mb: float) -> StallPoint:
    """Interpolate calibration points at ``l2_nominal_mb`` (log2-size
    piecewise-linear, clamped to the calibrated range)."""
    if not points:
        raise ValueError("signature has no calibration points")
    pts = sorted(points, key=lambda p: p.l2_nominal_mb)
    if l2_nominal_mb <= pts[0].l2_nominal_mb:
        return pts[0]
    if l2_nominal_mb >= pts[-1].l2_nominal_mb:
        return pts[-1]
    for lo, hi in zip(pts, pts[1:]):
        if lo.l2_nominal_mb <= l2_nominal_mb <= hi.l2_nominal_mb:
            x0 = math.log2(lo.l2_nominal_mb)
            x1 = math.log2(hi.l2_nominal_mb)
            t = (math.log2(l2_nominal_mb) - x0) / (x1 - x0)

            def mix(a: float, b: float) -> float:
                return a + t * (b - a)

            return StallPoint(
                l2_nominal_mb=l2_nominal_mb,
                l2_fraction=mix(lo.l2_fraction, hi.l2_fraction),
                mem_fraction=mix(lo.mem_fraction, hi.mem_fraction),
                alpha_i=mix(lo.alpha_i, hi.alpha_i),
                alpha_l2=mix(lo.alpha_l2, hi.alpha_l2),
                alpha_mem=mix(lo.alpha_mem, hi.alpha_mem),
                resid_cpi=mix(lo.resid_cpi, hi.resid_cpi),
                queue_wait=mix(lo.queue_wait, hi.queue_wait),
                correction=mix(lo.correction, hi.correction),
            )
    raise AssertionError("unreachable")  # pragma: no cover


def thread_cpi(sig: Signature, point: StallPoint, l2_latency: float,
               queue_wait: float, mem_latency: float) -> float:
    """Per-thread (per-context) CPI — the §10.1 equation.

    Every coefficient is non-negative by construction (calibration
    clamps), so the result is monotonically non-decreasing in
    ``l2_latency``, ``queue_wait``, and the miss fractions.
    """
    eff = l2_latency + max(0.0, queue_wait)
    return (
        sig.comp_cpi + sig.other_cpi + sig.i_mem_cpi
        + point.alpha_i * eff
        + sig.apki * point.l2_fraction * point.alpha_l2 * eff
        + sig.apki * point.mem_fraction * point.alpha_mem
        * (eff + mem_latency)
        + point.resid_cpi
    )


@dataclass(frozen=True)
class Prediction:
    """One model evaluation.

    Attributes:
        config_name: The evaluated configuration's label.
        kind: Workload kind.
        camp: Core camp.
        regime: "saturated" or "unsaturated".
        thread_cpi: Predicted per-context CPI.
        ipc: Predicted chip throughput (committed instructions/cycle).
        response_cycles: Predicted single-pass response time
            (unsaturated regime only, else None).
        queue_wait: Converged mean L2 bank-queue wait.
        utilization: Converged L2 bank utilization (pre-clamp).
        l2_latency: The L2 hit latency the prediction used.
    """

    config_name: str
    kind: str
    camp: str
    regime: str
    thread_cpi: float
    ipc: float
    response_cycles: float | None
    queue_wait: float
    utilization: float
    l2_latency: float


def cross_island_fraction(topology: IslandTopology | None,
                          placement: str = DEFAULT_PLACEMENT) -> float:
    """Fraction of off-L1 traffic whose home island is remote.

    Interleaved homes are uniform across ``s`` islands, so a requester
    finds ``(s - 1) / s`` of its references homed elsewhere; the
    ``island-partitioned`` placement keeps every data access home-local
    by construction, so its fraction is 0.  Single-socket (or no)
    topologies are always 0.
    """
    if topology is None or not topology.active:
        return 0.0
    if placement == "island-partitioned":
        return 0.0
    return (topology.n_sockets - 1) / topology.n_sockets


def _island_queue_wait(ipc: float, ppi: float, service: float,
                       banks: float, n_islands: int) -> tuple[float, float]:
    """Mean L2 bank-queue wait and utilization across islands.

    Each island's banks serve ``1/s`` of the chip's port traffic on
    ``banks/s`` banks.  The placements modeled here are symmetric
    (round-robin pinning, uniform interleave), so every island sees the
    same utilization and the loop averages identical M/D/1 terms; it is
    kept as an explicit per-island sum so an asymmetric placement can
    slot in without touching the fixed point.
    """
    total_wait = 0.0
    rho = 0.0
    island_banks = banks / n_islands
    for _ in range(n_islands):
        rho = (ipc / n_islands) * ppi * service / island_banks
        total_wait += md1_wait(rho, service)
    return total_wait / n_islands, rho


def _port_accesses_per_instr(sig: Signature, point: StallPoint) -> float:
    """L2 port (bank) accesses generated per committed instruction:
    data references that reach the L2 plus off-L1 instruction fetches."""
    return (sig.apki * (point.l2_fraction + point.mem_fraction)
            + sig.ipki_port)


def _context_counts(sig: Signature, n_cores: int, k: int) -> list[int]:
    """Occupied contexts per core after round-robin client placement
    (cores first, mirroring ``Machine._assign``).  More clients than
    contexts keeps every context busy; fewer leaves some empty."""
    total = n_cores * k
    clients = sig.n_clients if sig.n_clients > 0 else total
    occupied = min(clients, total)
    base, extra = divmod(occupied, n_cores)
    return [base + 1] * extra + [base] * (n_cores - extra)


def predict(sig: Signature, config: MachineConfig,
            placement: str = DEFAULT_PLACEMENT) -> Prediction:
    """Evaluate the model for ``config`` under ``sig``'s workload cell.

    Saturated regime: iterate the throughput <-> M/D/1 fixed point to
    convergence (damped; the map is a contraction because higher wait
    lowers throughput which lowers wait).  Unsaturated regime: a single
    client cannot queue against itself, so ``wq = 0`` and the response
    time is ``instructions x CPI``.

    Hardware islands (DESIGN.md §15): a cross-island traffic fraction
    ``x`` (0 for ``island-partitioned``, else ``(s-1)/s``) inflates the
    effective L2 and memory latencies by their remote multipliers, and
    the M/D/1 bank-queueing term is evaluated per island (``banks/s``
    banks serving ``1/s`` of the traffic each).  Single-socket configs
    reduce every term to the pre-island equations exactly.
    """
    hier = config.hierarchy
    lat = float(hier.resolved_l2_latency())
    point = sig.at(hier.l2_nominal_mb)
    mem = float(hier.mem_latency)
    topo = getattr(config, "topology", None)
    check_placement(placement, topo)
    islands = topo is not None and topo.active
    n_islands = topo.n_sockets if islands else 1
    if islands:
        x = cross_island_fraction(topo, placement)
        lat = lat * (1.0 + x * (topo.remote_l2_latency - 1.0))
        mem = mem * (1.0 + x * (topo.remote_mem_latency - 1.0))

    if sig.regime == "unsaturated":
        cpi = thread_cpi(sig, point, lat, 0.0, mem) * point.correction
        return Prediction(
            config_name=config.name, kind=sig.kind, camp=sig.camp,
            regime=sig.regime, thread_cpi=cpi, ipc=1.0 / cpi,
            response_cycles=sig.instructions * cpi,
            queue_wait=0.0, utilization=0.0, l2_latency=lat,
        )

    n_cores = hier.n_cores
    k = config.core.n_contexts
    service = float(hier.l2_occupancy)
    banks = float(hier.l2_banks)
    ppi = _port_accesses_per_instr(sig, point)
    counts = [kc for kc in _context_counts(sig, n_cores, k) if kc]
    wq = point.queue_wait
    cpi = thread_cpi(sig, point, lat, wq, mem)
    ipc = rho = 0.0
    for _ in range(_FP_ITERS):
        cpi = thread_cpi(sig, point, lat, wq, mem)
        if sig.camp == "lc":
            chip_ipc = sum(
                processor_sharing_ipc(kc, sig.work_cpi,
                                      cpi - sig.work_cpi)
                for kc in counts)
        else:
            chip_ipc = len(counts) / cpi
        ipc = chip_ipc * point.correction
        if n_islands > 1:
            wq_next, rho = _island_queue_wait(ipc, ppi, service, banks,
                                              n_islands)
        else:
            rho = ipc * ppi * service / banks
            wq_next = md1_wait(rho, service)
        if abs(wq_next - wq) < _FP_TOL:
            wq = wq_next
            break
        wq = wq + _FP_DAMP * (wq_next - wq)
    return Prediction(
        config_name=config.name, kind=sig.kind, camp=sig.camp,
        regime=sig.regime, thread_cpi=cpi, ipc=ipc,
        response_cycles=None, queue_wait=wq, utilization=rho,
        l2_latency=lat,
    )
