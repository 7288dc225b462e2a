"""Simulator profiling probes: phase timers and event gauges.

The paper is a characterization study — its contribution is knowing where
cycles go.  This module gives the *simulator itself* the same treatment:
a probe object threaded through :meth:`repro.simulator.machine.Machine.run`
and the hierarchies records where the simulation's wall-clock time goes
(warm vs. measure), how fast it simulates (accesses per second), and how
contended the modelled L2 ports were (queueing occupancy) — without ever
touching simulated state.

Two implementations share the interface:

- :class:`NullProbe` — the default.  Every method is a no-op ``pass``, so
  the disabled path costs one attribute call per *phase boundary* (never
  per simulated access) and cannot perturb results; the transparency
  tests assert simulations are bit-for-bit identical with and without a
  live probe.
- :class:`RunProbe` — accumulates phase wall-times (monotonic
  ``perf_counter`` deltas only — never wall-clock time) and named gauges,
  and renders them as a plain dict for the telemetry layer.

The probe observes; it must never steer.  Nothing in the simulator may
read a probe value back into a timing or placement decision — that would
couple results to host wall-clock and break the determinism contract
(DESIGN.md §5).
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["NULL_PROBE", "NullProbe", "RunProbe"]


class NullProbe:
    """The disabled probe: every hook is an inert no-op.

    Kept free of state and branches so threading it through the run loop
    is observationally equivalent to not having a probe at all.
    """

    __slots__ = ()

    #: Lets callers skip building payloads for a probe that drops them.
    enabled = False

    def phase_start(self, name: str) -> None:
        pass

    def phase_end(self, name: str) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


#: Shared inert instance (stateless, so one is enough for every machine).
NULL_PROBE = NullProbe()


class RunProbe:
    """A live probe: phase timers + named gauges for one ``Machine.run``.

    Phases nest by name, not by stack: ``phase_start("warm")`` /
    ``phase_end("warm")`` bracket the functional warm loop, and repeated
    brackets of the same name accumulate.  All timing is
    ``time.perf_counter`` (monotonic); recorded deltas never depend on the
    wall clock, which ``tests/test_telemetry.py`` locks down.

    Besides the hierarchy's event counters (``data_accesses`` etc.), a
    run reports ``batched_steps`` (event-loop steps dispatched without a
    heap round-trip).  It is observability only; DESIGN.md §14 explains
    why it cannot affect any simulated result.
    """

    __slots__ = ("phases", "gauges", "counters", "_open")

    enabled = True

    def __init__(self):
        self.phases: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._open: dict[str, float] = {}

    def phase_start(self, name: str) -> None:
        self._open[name] = perf_counter()

    def phase_end(self, name: str) -> None:
        t0 = self._open.pop(name, None)
        if t0 is not None:
            self.phases[name] = self.phases.get(name, 0.0) + (
                perf_counter() - t0)

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        self.gauges[name] = value

    def count(self, name: str, n: int = 1) -> None:
        """Accumulate an event count."""
        self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict:
        """A JSON-ready view: phase seconds, gauges, counters, and the
        derived simulation rate (simulated accesses per host second)."""
        out = {
            "phase_seconds": {k: round(v, 6) for k, v in self.phases.items()},
            "gauges": dict(self.gauges),
            "counters": dict(self.counters),
        }
        measure = self.phases.get("measure", 0.0)
        accesses = self.counters.get("data_accesses", 0)
        if measure > 0 and accesses:
            out["accesses_per_sec"] = round(accesses / measure, 3)
        return out
