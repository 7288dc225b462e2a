"""The service under injected chaos: breaker lifecycle and degradation.

``REPRO_FAULTS`` drives the service's slow tier deterministically
(sites ``spurious``/``slow``/``stall``, indexed by simulation sequence
number), so the full breaker story — closed → open under consecutive
failures, degraded model-tier answers while open, half-open probe and
recovery — plays out without sleeping or real flakiness.  The breaker
clock is injected, so cooldowns advance by hand.
"""

import asyncio

import pytest

from repro.core.experiment import Experiment
from repro.serve import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    DesignQuery,
    DesignService,
)
from repro.settings import Settings



SCALE = 0.01
CYCLES = 5_000


class FakeClock:
    """Hand-advanced monotonic clock (breaker cooldowns, no sleeping)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _query(mb: float, camp: str = "lc") -> DesignQuery:
    return DesignQuery(camp, cores=2, l2_mb=mb, banks=4, kind="dss")


def _service(model, faults: str, monkeypatch, clock=None,
             settings: Settings | None = None, **kwargs) -> DesignService:
    monkeypatch.setenv("REPRO_FAULTS", faults)
    exp = Experiment(scale=SCALE, measure_cycles=CYCLES, use_cache=False,
                     settings=settings or Settings(retries=0))
    if clock is not None:
        kwargs.setdefault("breaker", CircuitBreaker(
            failure_threshold=2, cooldown_s=5.0, clock=clock))
        kwargs.setdefault("clock", clock)
    return DesignService(exp, model, **kwargs)


@pytest.mark.slow
class TestBreakerUnderFaults:
    def test_open_half_open_close_lifecycle(self, serve_model, monkeypatch):
        clock = FakeClock()
        svc = _service(serve_model, "spurious@0;spurious@1", monkeypatch,
                       clock=clock)

        async def go():
            async with svc:
                # Two injected slow-tier failures (sim seq 0 and 1):
                # each degrades its answer; the second opens the breaker.
                first = await svc.submit(_query(1.0))
                assert svc.breaker.state == CLOSED
                second = await svc.submit(_query(2.0))
                assert svc.breaker.state == OPEN
                # Open: the slow tier is skipped outright.
                third = await svc.submit(_query(4.0))
                # Cooldown elapses; the next request is the half-open
                # probe — sim seq 2 has no fault rule, so it succeeds
                # and closes the circuit.
                clock.advance(5.0)
                fourth = await svc.submit(_query(8.0))
                assert svc.breaker.state == CLOSED
                return first, second, third, fourth

        first, second, third, fourth = asyncio.run(go())
        for answer, note in ((first, "sim-failed"), (second, "sim-failed"),
                             (third, "breaker-open")):
            assert answer.tier == "model"
            assert answer.degraded
            assert answer.confidence == "degraded"
            assert answer.note == note
        assert fourth.tier == "simulated"
        assert not fourth.degraded
        stats = svc.stats()
        assert stats["sim"]["failed"] == 2
        assert stats["sim"]["completed"] == 1
        assert stats["breaker"]["opens"] == 1
        assert stats["degraded"] == 3
        assert svc.exp.sim_runs == 1  # only the recovered probe landed

    def test_breaker_events_reach_telemetry(self, serve_model, monkeypatch,
                                            tmp_path):
        clock = FakeClock()
        log = str(tmp_path / "svc.jsonl")
        monkeypatch.setenv("REPRO_FAULTS", "spurious@0;spurious@1")
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES,
                         use_cache=False, telemetry=log,
                         settings=Settings(retries=0))
        svc = DesignService(exp, serve_model,
                            breaker=CircuitBreaker(
                                failure_threshold=2, cooldown_s=5.0,
                                clock=clock), clock=clock)

        async def go():
            async with svc:
                await svc.submit(_query(1.0))
                await svc.submit(_query(2.0))
                clock.advance(5.0)
                await svc.submit(_query(4.0))

        asyncio.run(go())
        from repro.core import telemetry

        events = telemetry.load_events(log)
        failures = [e for e in events if e["ev"] == "svc_sim_fail"]
        assert [e["kind"] for e in failures] == ["error", "error"]
        states = [e["state"] for e in events if e["ev"] == "svc_breaker"]
        assert states == ["open", "half-open", "closed"]
        service = telemetry.summarize(events)["service"]
        assert service["sim_failures"] == {"error": 2}
        assert service["breaker_transitions"] == states


@pytest.mark.slow
class TestSlowAndStallSites:
    def test_slow_site_delays_but_completes(self, serve_model, monkeypatch):
        svc = _service(serve_model, "slow@0:0.01", monkeypatch)

        async def go():
            async with svc:
                return await svc.submit(_query(1.0))

        answer = asyncio.run(go())
        assert answer.tier == "simulated"
        assert svc.breaker.state == CLOSED

    def test_stall_site_trips_the_timeout(self, serve_model, monkeypatch):
        svc = _service(serve_model, "stall@0:0.5", monkeypatch,
                       sim_timeout_s=0.05)

        async def go():
            async with svc:
                return await svc.submit(_query(1.0))

        answer = asyncio.run(go())
        assert answer.tier == "model"
        assert answer.degraded
        assert answer.note == "sim-failed"
        stats = svc.stats()
        assert stats["sim"]["timeouts"] == 1
        assert svc.breaker.failures == 1

    def test_spurious_is_retryable(self, serve_model, monkeypatch):
        # attempt 0 faults, attempt 1 does not: the slow tier's retry
        # loop (PR 2 semantics) absorbs the transient without the
        # breaker ever seeing a failure.
        svc = _service(serve_model, "spurious@0", monkeypatch,
                       settings=Settings(retries=1, backoff=0.001))

        async def go():
            async with svc:
                return await svc.submit(_query(1.0))

        answer = asyncio.run(go())
        assert answer.tier == "simulated"
        assert svc.breaker.failures == 0
        assert svc.stats()["sim"]["failed"] == 0
