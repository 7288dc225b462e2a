"""The service vocabulary: design queries, answers, typed rejections.

A :class:`DesignQuery` names one point of the paper's design space —
exactly the coordinates the analytical model, the result cache, and the
simulator all key on — so a query has a canonical identity
(:meth:`DesignQuery.key`) that request coalescing and the cache tier can
share.  An :class:`Answer` carries the metrics plus full provenance: the
``tier`` that produced it (``model`` / ``cache`` / ``simulated``), a
``confidence`` tag, and whether it is a degraded model answer standing
in for a simulation that failed.  :class:`Overloaded` is the
admission-control rejection: typed, carrying ``retry_after_s``, never
an unbounded queue.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from ..core.parallel import REGIMES, RunSpec, WARM_FRACTIONS
from ..model.calibrate import config_for
from ..simulator.machine import MachineConfig, MachineResult
from ..simulator.topology import DEFAULT_PLACEMENT, IslandTopology, \
    check_geometry, check_placement

__all__ = [
    "Answer",
    "CONFIDENCES",
    "DesignQuery",
    "Overloaded",
    "TIERS",
    "model_payload",
    "simulated_payload",
]

#: Answer provenance tiers, fastest first (DESIGN.md §12).
TIERS = ("model", "cache", "simulated")

#: Confidence tags: ``screened`` (model estimate, simulator never
#: consulted), ``confirmed`` (simulator measurement), ``degraded``
#: (model estimate because the simulation failed).
CONFIDENCES = ("screened", "confirmed", "degraded")

#: Core camps a query may name (the paper's fat/lean taxonomy).
CAMPS = ("fc", "lc")


class Overloaded(RuntimeError):
    """Admission control rejected the request (bounded queue full).

    Attributes:
        retry_after_s: The service's advice on when to retry, derived
            from its recent answer latency — a client that honors it
            arrives after the backlog has had a realistic chance to
            drain.
        pending: Requests in flight when the rejection was issued.
    """

    def __init__(self, retry_after_s: float, pending: int):
        self.retry_after_s = float(retry_after_s)
        self.pending = int(pending)
        super().__init__(
            f"service overloaded ({pending} requests in flight); "
            f"retry after {retry_after_s:.3f}s")


@dataclass(frozen=True)
class DesignQuery:
    """One design/what-if question: a machine at workload coordinates.

    Attributes:
        camp: Core camp, ``"fc"`` or ``"lc"``.
        cores: Core count.
        l2_mb: Nominal shared-L2 capacity in MB.
        banks: Shared-L2 bank count (power of two, like the simulator).
        kind: Workload kind, ``"oltp"`` or ``"dss"``.
        regime: ``"saturated"`` (throughput) or ``"unsaturated"``
            (response time).
        sockets: Hardware-islands socket count (1 = the pre-island
            single chip; the wire form, key, and label only carry the
            island coordinates when this is > 1).
        placement: Client/data placement policy on a multi-socket
            machine (see :data:`repro.simulator.topology.PLACEMENTS`).
    """

    camp: str
    cores: int = 4
    l2_mb: float = 26.0
    banks: int = 4
    kind: str = "oltp"
    regime: str = "saturated"
    sockets: int = 1
    placement: str = DEFAULT_PLACEMENT

    def __post_init__(self):
        # Every check holds for any JSON value (a list or an object
        # included): a bad field is a ValueError, never a TypeError.
        for name in ("camp", "kind", "regime", "placement"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, "
                                 f"got {getattr(self, name)!r}")
        if self.camp not in CAMPS:
            raise ValueError(f"unknown camp {self.camp!r}: expected one "
                             f"of {list(CAMPS)}")
        if self.kind not in WARM_FRACTIONS:
            raise ValueError(f"unknown workload kind {self.kind!r}: "
                             f"expected one of {sorted(WARM_FRACTIONS)}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}: expected "
                             f"one of {list(REGIMES)}")
        if not _is_int(self.cores) or self.cores < 1:
            raise ValueError(f"cores must be a positive int, "
                             f"got {self.cores!r}")
        if (not isinstance(self.l2_mb, (int, float))
                or isinstance(self.l2_mb, bool)
                or not 0 < self.l2_mb <= sys.float_info.max):
            raise ValueError(f"l2_mb must be a finite positive number, "
                             f"got {self.l2_mb!r}")
        if (not _is_int(self.banks) or self.banks < 1
                or self.banks & (self.banks - 1)):
            raise ValueError(f"banks must be a positive power of two, "
                             f"got {self.banks!r}")
        if not _is_int(self.sockets) or self.sockets < 1:
            raise ValueError(f"sockets must be a positive int, "
                             f"got {self.sockets!r}")
        # Eager validation, same rules as MachineConfig and RunSpec: a
        # bad placement or carving is rejected at the wire, not inside a
        # worker.
        topo = self.topology()
        check_placement(self.placement, topo)
        check_geometry(topo, self.cores, self.banks)

    def topology(self) -> IslandTopology | None:
        """The islands carving this query names (None at one socket)."""
        if self.sockets == 1:
            return None
        return IslandTopology(n_sockets=self.sockets)

    def key(self) -> tuple:
        """The coalescing/cache identity of this query.

        Single-socket keys are byte-identical to the pre-island wire
        protocol; island coordinates append only when they are active.
        """
        key = (self.camp, self.cores, float(self.l2_mb), self.banks,
               self.kind, self.regime)
        if self.sockets > 1:
            key += (self.sockets, self.placement)
        return key

    @property
    def label(self) -> str:
        """Compact display label for logs and reports."""
        base = (f"{self.camp}/{self.cores}c/{self.l2_mb:g}MB/"
                f"{self.banks}b/{self.kind}/{self.regime}")
        if self.sockets > 1:
            base += f"/{self.sockets}s/{self.placement}"
        return base

    def config(self, scale: float) -> MachineConfig:
        """The machine configuration this query names at ``scale``."""
        return config_for(self.camp, self.l2_mb, scale,
                          n_cores=self.cores, l2_banks=self.banks,
                          topology=self.topology())

    def spec(self, scale: float) -> RunSpec:
        """The simulator measurement this query names at ``scale``."""
        return RunSpec(self.config(scale), self.kind, self.regime,
                       placement=self.placement)

    def to_dict(self) -> dict:
        """A JSON-ready document (the wire form of a query)."""
        doc = {"camp": self.camp, "cores": self.cores,
               "l2_mb": self.l2_mb, "banks": self.banks,
               "kind": self.kind, "regime": self.regime}
        if self.sockets > 1:
            doc["sockets"] = self.sockets
            doc["placement"] = self.placement
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DesignQuery":
        """Parse a wire-form query; raises ``ValueError`` on bad input.

        Field types are normalized (JSON clients send ``4``, ``4.0`` and
        ``"4"`` interchangeably), but a count that is not a whole number
        (``4.7``, ``"4.5"``) or a boolean is rejected, never rounded, and
        unknown fields are rejected — the wire protocol is a contract,
        not a junk drawer.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"query must be an object, "
                             f"got {type(doc).__name__}")
        allowed = {"camp", "cores", "l2_mb", "banks", "kind", "regime",
                   "sockets", "placement"}
        extra = set(doc) - allowed
        if extra:
            raise ValueError(f"unknown query fields {sorted(extra)}")
        if "camp" not in doc:
            raise ValueError("query missing required field 'camp'")
        out = {"camp": doc["camp"]}
        for name in ("cores", "banks", "sockets"):
            if name in doc:
                out[name] = _whole(name, doc[name])
        if "l2_mb" in doc:
            try:
                if isinstance(doc["l2_mb"], bool):
                    raise TypeError
                out["l2_mb"] = float(doc["l2_mb"])
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"l2_mb must be a number, "
                                 f"got {doc['l2_mb']!r}") from None
        for name in ("kind", "regime", "placement"):
            if name in doc:
                out[name] = doc[name]
        return cls(**out)


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is an ``int`` too)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _whole(name: str, value) -> int:
    """A wire count as an int: ``4``, ``4.0`` and ``"4"`` are 4; a
    boolean or a non-integral number raises ``ValueError``."""
    try:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a whole number, "
                         f"got {value!r}") from None


@dataclass(frozen=True)
class Answer:
    """One answered query, with provenance.

    Attributes:
        query: The question.
        tier: Which tier produced the metrics (one of :data:`TIERS`).
        confidence: One of :data:`CONFIDENCES`.
        degraded: True when the simulation failed and the service fell
            back to the model.
        payload: The metrics (tier-shaped; see DESIGN.md §12.1).
        req: The service request sequence number that computed this.
        wall_s: Time from admission to answer, seconds (monotonic).
        coalesced: True for a request that shared another request's
            in-flight computation.
        note: Why the answer stopped at its tier (``"deadline"``,
            ``"sim-queue-full"``, ``"sim-failed"``, or empty when the
            tier was simply the right one).
    """

    query: DesignQuery
    tier: str
    confidence: str
    degraded: bool
    payload: dict
    req: int
    wall_s: float
    coalesced: bool = False
    note: str = ""

    def as_coalesced(self, req: int, wall_s: float) -> "Answer":
        """This answer re-labelled for a coalesced waiter."""
        return replace(self, req=req, wall_s=wall_s, coalesced=True)

    def to_dict(self) -> dict:
        """A JSON-ready document (the wire form of an answer)."""
        return {
            "query": self.query.to_dict(),
            "tier": self.tier,
            "confidence": self.confidence,
            "degraded": self.degraded,
            "payload": dict(self.payload),
            "req": self.req,
            "wall_s": round(self.wall_s, 6),
            "coalesced": self.coalesced,
            "note": self.note,
        }


def model_payload(prediction) -> dict:
    """The model tier's answer payload from a
    :class:`~repro.model.analytical.Prediction` — exactly the
    prediction's fields, so a degraded answer is bit-consistent with a
    direct ``CalibratedModel.predict`` call."""
    return {
        "config_name": prediction.config_name,
        "thread_cpi": prediction.thread_cpi,
        "ipc": prediction.ipc,
        "response_cycles": prediction.response_cycles,
        "queue_wait": prediction.queue_wait,
        "utilization": prediction.utilization,
        "l2_latency": prediction.l2_latency,
    }


def simulated_payload(result: MachineResult) -> dict:
    """The cache/simulated tiers' answer payload from a measurement."""
    return {
        "config_name": result.config_name,
        "workload_name": result.workload_name,
        "ipc": result.ipc,
        "response_cycles": result.response_cycles,
        "retired": result.retired,
        "elapsed": result.elapsed,
        "l2_miss_rate": result.l2_miss_rate,
    }
