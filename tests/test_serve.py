"""The async design-query service: tiers, provenance, and robustness.

The contracts under test (DESIGN.md §12):

- **Coalescing** — k identical concurrent queries cost exactly one
  backend computation and yield k identical answers.
- **Deadlines** — a request never waits past its budget: it falls back
  to the model tier while the shared computation survives for later
  requests.
- **Admission control** — requests beyond ``MAX_PENDING`` are shed with
  a typed :class:`Overloaded` carrying retry-after advice.
- **Wire parsing** — any JSON request line gets an ``ok`` reply or a
  typed ``bad-request``; the parser never raises.
- **Bit-consistency** — a degraded (model-tier) answer carries exactly
  the fields a direct ``CalibratedModel.predict`` call returns, and a
  simulated answer exactly the fields of a direct ``Experiment.run``.
- **Introspection** — every request appears in telemetry as schema-valid
  ``svc_*`` events, and ``stats()``/``health()`` report live state.

Everything here runs under a cleared ``REPRO_FAULTS`` (the CI chaos job
sets an ambient plan for the whole suite).
"""

import asyncio
import json
import math
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel, telemetry
from repro.core.experiment import Experiment
from repro.serve import (
    Answer,
    DesignQuery,
    DesignService,
    Overloaded,
)
from repro.serve import service as service_module
from repro.serve.query import model_payload, simulated_payload
from repro.serve.server import DesignServer

SCALE = 0.01
CYCLES = 5_000


@pytest.fixture(autouse=True)
def no_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _experiment(**kwargs) -> Experiment:
    kwargs.setdefault("use_cache", False)
    return Experiment(scale=SCALE, measure_cycles=CYCLES,
                      **kwargs)


def _service(model, exp=None, **kwargs) -> DesignService:
    return DesignService(_experiment() if exp is None else exp, model,
                         **kwargs)


class TestDesignQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignQuery("xx")
        with pytest.raises(ValueError):
            DesignQuery("fc", kind="olap")
        with pytest.raises(ValueError):
            DesignQuery("fc", regime="idle")
        with pytest.raises(ValueError):
            DesignQuery("fc", cores=0)
        with pytest.raises(ValueError):
            DesignQuery("fc", banks=3)
        with pytest.raises(ValueError):
            DesignQuery("fc", l2_mb=0.0)
        for l2_mb in (math.nan, math.inf):
            with pytest.raises(ValueError, match="l2_mb"):
                DesignQuery("fc", l2_mb=l2_mb)

    def test_key_and_label(self):
        q = DesignQuery("lc", cores=8, l2_mb=4.0, banks=8, kind="dss",
                        regime="unsaturated")
        assert q.key() == ("lc", 8, 4.0, 8, "dss", "unsaturated")
        assert q.label == "lc/8c/4MB/8b/dss/unsaturated"

    def test_wire_round_trip_normalizes_types(self):
        q = DesignQuery.from_dict(
            {"camp": "fc", "cores": 4.0, "l2_mb": 2, "banks": "4"})
        assert q == DesignQuery("fc", cores=4, l2_mb=2.0, banks=4)
        assert type(q.cores) is int and type(q.banks) is int
        assert DesignQuery.from_dict(q.to_dict()) == q

    def test_wire_rejects_junk(self):
        with pytest.raises(ValueError):
            DesignQuery.from_dict({"camp": "fc", "bogus": 1})
        with pytest.raises(ValueError):
            DesignQuery.from_dict({"cores": 4})
        with pytest.raises(ValueError):
            DesignQuery.from_dict(["fc"])
        with pytest.raises(ValueError):
            DesignQuery.from_dict({"camp": "fc", "cores": "many"})

    @pytest.mark.parametrize("field,value", [
        ("cores", 4.7), ("cores", "4.5"), ("cores", True),
        ("banks", 2.5), ("banks", False), ("sockets", 2.9),
        ("sockets", True), ("l2_mb", True), ("cores", math.inf),
    ])
    def test_wire_rejects_non_integral_and_bool(self, field, value):
        """A count that is not a whole number, or a boolean, is an error,
        never silently truncated into a different design."""
        with pytest.raises(ValueError, match=field):
            DesignQuery.from_dict({"camp": "fc", field: value})

    @pytest.mark.parametrize("field", ["cores", "banks", "sockets", "l2_mb"])
    def test_constructor_rejects_bool(self, field):
        with pytest.raises(ValueError, match=field):
            DesignQuery("fc", **{field: True})


class TestWireErrors:
    """Bad request lines get a typed ``bad-request`` reply before any
    tier runs."""

    def _dispatch(self, line):
        server = DesignServer(_service(None), "127.0.0.1", 0)
        return asyncio.run(server._dispatch(line))

    @pytest.mark.parametrize("deadline", [
        "NaN", '"nan"', "Infinity", '"inf"', "-Infinity", "0", "-1"])
    def test_non_finite_or_non_positive_deadline(self, deadline):
        reply = self._dispatch('{"op": "query", "query": {"camp": "fc"}, '
                               f'"deadline_s": {deadline}}}')
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"
        assert "deadline_s" in reply["message"]

    @pytest.mark.parametrize("deadline", ["true", "false", "1e999999",
                                          "[1]", '{"s": 1}'])
    def test_non_number_deadline(self, deadline):
        """A boolean is not a budget (``true`` is not 1 s), and a value
        that is no number at all is a bad request, not a crash."""
        reply = self._dispatch('{"op": "query", "query": {"camp": "fc"}, '
                               f'"deadline_s": {deadline}}}')
        assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert "deadline_s" in reply["message"]

    def test_truncating_query_field(self):
        reply = self._dispatch(
            '{"op": "query", "query": {"camp": "fc", "cores": 4.7}}')
        assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert "cores" in reply["message"]

    @pytest.mark.parametrize("line", [
        '{"op": "query", "query": {"camp": "lc", "kind": ["oltp"]}}',
        '{"op": "query", "query": {"camp": "lc", "regime": {"a": 1}}}',
        '{"op": "query", "query": {"camp": ["lc"]}}',
        '{"op": "query", "query": {"camp": "lc", "l2_mb": '
        + "9" * 400 + "}}",
        '{"op": "query", "query": {"camp": "lc", "cores": '
        + "9" * 5000 + "}}",
        "[" * 5000 + "]" * 5000,
    ], ids=["list-kind", "object-regime", "list-camp", "float-overflow",
            "digit-limit", "deep-nesting"])
    def test_unparseable_values_are_typed(self, line):
        """An unhashable field, a float overflow, an integer past the
        interpreter's digit limit and deep nesting are bad requests."""
        reply = self._dispatch(line)
        assert (reply["ok"], reply["error"]) == (False, "bad-request")


#: Any JSON value (``allow_nan``: the parser reads ``NaN``/``Infinity``).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=6)

#: A replacement value for one field, containers drawn more often: an
#: unhashable value is what reaches past the type-free checks.
_ANY = _JSON | st.lists(_JSON, max_size=2) | st.dictionaries(
    st.text(max_size=3), _JSON, max_size=2)

#: Valid wire values of each query field.
_FIELDS = {
    "camp": ["fc", "lc"],
    "cores": [1, 2, 4, 8, 4.0, "4"],
    "l2_mb": [1, 4.0, "26"],
    "banks": [1, 4, 8],
    "kind": ["oltp", "dss"],
    "regime": ["saturated", "unsaturated"],
    "sockets": [1, 2],
    "placement": ["shared-everything", "island-partitioned", "hybrid"],
}


@st.composite
def _query(draw):
    """A wire query: valid values in ``camp`` and a random subset of the
    other fields, then one field (or an unknown one) set to any JSON
    value."""
    doc = {name: draw(st.sampled_from(values))
           for name, values in _FIELDS.items()
           if name == "camp" or draw(st.booleans())}
    doc[draw(st.sampled_from([*_FIELDS, "bogus"]))] = draw(_ANY)
    return doc


_REQUEST = st.fixed_dictionaries({"query": _query()}, optional={
    "op": st.sampled_from(["query", "health", "stats"]) | _JSON,
    "deadline_s": st.sampled_from([0.5, 1, "2"]) | _ANY,
})


class _StubService:
    """Answers every admitted query from a canned model payload."""

    async def submit(self, query, deadline_s=None):
        return Answer(query, "model", "screened", False, {"ipc": 1.0},
                      1, 0.0)

    def health(self):
        return {"pending": 0}

    def stats(self):
        return {"requests": 0}


class TestWireFuzz:
    """Every request line gets one reply, ``ok`` or a typed
    ``bad-request``; ``DesignServer._dispatch`` never raises."""

    def _reply(self, doc) -> dict:
        server = DesignServer(_StubService(), "127.0.0.1", 0)
        reply = asyncio.run(server._dispatch(json.dumps(doc)))
        assert reply["ok"] is True or reply["error"] == "bad-request"
        json.dumps(reply)  # the reply line itself must encode
        return reply

    @settings(max_examples=300, deadline=None)
    @given(doc=_REQUEST)
    def test_any_query_field_gets_a_typed_reply(self, doc):
        self._reply(doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=_JSON)
    def test_any_json_document_gets_a_typed_reply(self, doc):
        self._reply(doc)

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(["camp", "cores", "l2_mb", "banks",
                                  "kind", "regime", "sockets",
                                  "placement"]),
           value=_JSON)
    def test_constructor_raises_only_value_error(self, field, value):
        fields = {"camp": "fc", field: value}
        try:
            DesignQuery(**fields)
        except ValueError:
            pass


@pytest.mark.slow
class TestTiersAndProvenance:
    def test_simulated_answer_bit_identical_to_direct_run(self, serve_model):
        q = DesignQuery("lc", cores=2, l2_mb=1.0, banks=4, kind="dss")

        async def go():
            async with _service(serve_model) as svc:
                return svc, await svc.submit(q)

        svc, answer = asyncio.run(go())
        assert answer.tier == "simulated"
        assert answer.confidence == "confirmed"
        assert not answer.degraded
        assert svc.exp.sim_runs == 1
        direct = _experiment().run(q.config(SCALE), q.kind, q.regime)
        assert answer.payload == simulated_payload(direct)

    def test_cache_tier_recalls_prior_measurements(self, serve_model):
        q = DesignQuery("fc", cores=2, l2_mb=1.0, banks=4, kind="dss")
        exp = _experiment()
        exp.run(q.config(SCALE), q.kind, q.regime)
        assert exp.sim_runs == 1

        async def go():
            async with _service(serve_model, exp=exp) as svc:
                return await svc.submit(q)

        answer = asyncio.run(go())
        assert answer.tier == "cache"
        assert answer.confidence == "confirmed"
        assert exp.sim_runs == 1  # recalled, not re-simulated

    def test_degraded_answer_bit_consistent_with_model(
            self, serve_model, monkeypatch, tmp_path):
        """A simulation that raises is run once, logged, and answered
        from the model as ``sim-failed``."""
        calls = []

        def broken(*args):
            calls.append(args)
            raise RuntimeError("simulator down")

        monkeypatch.setattr(parallel, "execute", broken)
        log = str(tmp_path / "svc.jsonl")
        q = DesignQuery("fc", cores=4, l2_mb=2.0, banks=4, kind="oltp")

        async def go():
            async with _service(serve_model,
                                exp=_experiment(telemetry=log)) as svc:
                return svc, await svc.submit(q)

        svc, answer = asyncio.run(go())
        assert answer.tier == "model"
        assert answer.degraded
        assert answer.confidence == "degraded"
        assert answer.note == "sim-failed"
        assert len(calls) == 1  # deterministic: no retry
        assert svc.exp.sim_runs == 0
        direct = serve_model.predict(q.config(SCALE), q.kind,
                                     q.regime)
        assert answer.payload == model_payload(direct)
        assert svc.stats()["sim"]["failed"] == 1
        assert "status" not in svc.health()
        (fail,) = [e for e in telemetry.load_events(log)
                   if e["ev"] == "svc_sim_fail"]
        assert (fail["kind"], fail["message"]) == (
            "error", "RuntimeError: simulator down")

    def test_health_reports_ok_when_closed(self, serve_model):
        async def go():
            async with _service(serve_model) as svc:
                return svc.health()

        health = asyncio.run(go())
        assert "status" not in health
        assert health["model_fitted"]


@pytest.mark.slow
class TestCoalescing:
    def test_k_identical_queries_one_computation(self, serve_model):
        q = DesignQuery("lc", cores=4, l2_mb=1.0, banks=4, kind="dss")
        k = 5

        async def go():
            async with _service(serve_model) as svc:
                answers = await asyncio.gather(
                    *(svc.submit(q) for _ in range(k)))
                return svc, answers

        svc, answers = asyncio.run(go())
        assert svc.exp.sim_runs == 1  # one backend computation
        payloads = [a.payload for a in answers]
        assert all(p == payloads[0] for p in payloads)  # k identical
        assert all(a.tier == "simulated" for a in answers)
        assert sum(a.coalesced for a in answers) == k - 1
        assert len({a.req for a in answers}) == k  # each req keeps its id
        stats = svc.stats()
        assert stats["requests"] == k
        assert stats["coalesced"] == k - 1
        assert stats["sim"]["enqueued"] == 1

    def test_distinct_queries_do_not_coalesce(self, serve_model):
        qs = [DesignQuery("lc", cores=4, l2_mb=mb, banks=4, kind="dss")
              for mb in (1.0, 2.0)]

        async def go():
            async with _service(serve_model) as svc:
                answers = await asyncio.gather(*(svc.submit(q) for q in qs))
                return svc, answers

        svc, answers = asyncio.run(go())
        assert svc.exp.sim_runs == 2
        assert not any(a.coalesced for a in answers)


class _GatedSim:
    """Blocks the service's simulation thread until released."""

    def __init__(self, monkeypatch):
        self.release = threading.Event()
        original = parallel.execute

        def gated(*args):
            assert self.release.wait(10.0), "gated simulation leaked"
            return original(*args)

        monkeypatch.setattr(parallel, "execute", gated)


@pytest.mark.slow
class TestDeadlinesAndOverload:
    def test_deadline_falls_back_to_model_and_computation_survives(
            self, serve_model, monkeypatch):
        gate = _GatedSim(monkeypatch)
        q = DesignQuery("fc", cores=4, l2_mb=1.0, banks=4, kind="dss")

        async def go():
            async with _service(serve_model) as svc:
                first = await svc.submit(q, deadline_s=0.05)
                gate.release.set()
                second = await svc.submit(q)
                return svc, first, second

        svc, first, second = asyncio.run(go())
        assert first.tier == "model"
        assert first.note == "deadline"
        assert not first.degraded  # the service itself is healthy
        # The shielded computation survived the deadline: the follow-up
        # reuses it (in-flight coalesce or memo) without re-simulating.
        assert second.tier in ("simulated", "cache")
        assert svc.exp.sim_runs == 1
        assert svc.stats()["deadline_fallbacks"] == 1

    def test_overload_sheds_with_typed_rejection(self, serve_model,
                                                 monkeypatch):
        gate = _GatedSim(monkeypatch)
        q1 = DesignQuery("lc", cores=2, l2_mb=2.0, banks=4, kind="dss")
        q2 = DesignQuery("fc", cores=2, l2_mb=2.0, banks=4, kind="dss")

        monkeypatch.setattr(service_module, "MAX_PENDING", 1)

        async def go():
            async with _service(serve_model) as svc:
                blocked = asyncio.create_task(svc.submit(q1))
                while svc.stats()["pending"] < 1:
                    await asyncio.sleep(0.001)
                with pytest.raises(Overloaded) as excinfo:
                    await svc.submit(q2)
                gate.release.set()
                answer = await blocked
                return svc, excinfo.value, answer

        svc, err, answer = asyncio.run(go())
        assert err.retry_after_s > 0
        assert err.pending == 1
        assert answer.tier == "simulated"
        stats = svc.stats()
        assert stats["shed"] == 1
        assert stats["requests"] == 1  # the shed request was never admitted

    def test_full_sim_queue_degrades_to_model_not_blocking(
            self, serve_model, monkeypatch):
        gate = _GatedSim(monkeypatch)
        qs = [DesignQuery("lc", cores=2, l2_mb=mb, banks=4, kind="dss")
              for mb in (1.0, 2.0, 4.0)]

        monkeypatch.setattr(service_module, "SIM_QUEUE_DEPTH", 1)

        async def go():
            async with _service(serve_model, sim_workers=1) as svc:
                tasks = []
                for q in qs:
                    tasks.append(asyncio.create_task(svc.submit(q)))
                    await asyncio.sleep(0.01)  # deterministic arrival order
                gate.release.set()
                answers = await asyncio.gather(*tasks)
                return svc, answers

        svc, answers = asyncio.run(go())
        # Worker holds q1, the depth-1 queue holds q2; q3 must not block.
        assert [a.tier for a in answers[:2]] == ["simulated", "simulated"]
        assert answers[2].tier == "model"
        assert answers[2].note == "sim-queue-full"
        assert not answers[2].degraded
        assert svc.stats()["sim"]["rejected_full"] == 1

    def test_concurrent_clients_conserve_requests(self, serve_model,
                                                  monkeypatch):
        """Closed-loop clients over a small ``MAX_PENDING``: every issued
        request is answered or shed with a typed rejection, and the
        service's counters agree with what the clients saw."""
        qs = [DesignQuery(camp, cores=2, l2_mb=mb, banks=4, kind="dss")
              for camp in ("lc", "fc") for mb in (1.0, 2.0, 4.0)]
        outcomes = []

        async def client(svc, c):
            for i in range(4):
                try:
                    answer = await svc.submit(qs[(c + 2 * i) % len(qs)],
                                              deadline_s=0.5)
                except Overloaded as exc:
                    assert exc.retry_after_s > 0
                    outcomes.append("shed")
                    await asyncio.sleep(min(exc.retry_after_s, 0.01))
                    continue
                assert answer.tier in ("model", "cache", "simulated")
                outcomes.append("answered")

        monkeypatch.setattr(service_module, "MAX_PENDING", 2)
        monkeypatch.setattr(service_module, "SIM_QUEUE_DEPTH", 1)

        async def go():
            async with _service(serve_model) as svc:
                await asyncio.gather(*(client(svc, c) for c in range(4)))
                return svc.stats()

        stats = asyncio.run(go())
        answered, shed = outcomes.count("answered"), outcomes.count("shed")
        assert answered + shed == len(outcomes) == 16
        assert shed > 0 and answered > 0
        assert stats["shed"] == shed
        assert stats["requests"] == stats["answers"] == answered
        assert stats["pending"] == 0


@pytest.mark.slow
class TestServiceTelemetry:
    def test_requests_emit_schema_valid_events(self, serve_model, tmp_path,
                                               monkeypatch):
        gate = _GatedSim(monkeypatch)
        log = str(tmp_path / "svc.jsonl")
        exp = _experiment(telemetry=log)
        q = DesignQuery("lc", cores=2, l2_mb=1.0, banks=4, kind="dss")
        q_other = DesignQuery("fc", cores=2, l2_mb=1.0, banks=4,
                              kind="dss")

        monkeypatch.setattr(service_module, "MAX_PENDING", 2)

        async def go():
            async with _service(serve_model, exp=exp) as svc:
                gate.release.set()
                await asyncio.gather(svc.submit(q), svc.submit(q))
                gate.release.clear()
                blocked = asyncio.create_task(svc.submit(q_other))
                while svc.stats()["pending"] < 1:
                    await asyncio.sleep(0.001)
                hold = asyncio.create_task(svc.submit(
                    DesignQuery("fc", cores=4, l2_mb=4.0, banks=4,
                                kind="dss")))
                while svc.stats()["pending"] < 2:
                    await asyncio.sleep(0.001)
                with pytest.raises(Overloaded):
                    await svc.submit(q_other)
                gate.release.set()
                await asyncio.gather(blocked, hold)

        asyncio.run(go())
        events = telemetry.load_events(log)
        kinds = {e["ev"] for e in events}
        assert {"svc_request", "svc_answer", "svc_coalesce",
                "svc_shed"} <= kinds
        summary = telemetry.summarize(events)
        service = summary["service"]
        assert service["requests"] == 4
        assert service["answers"] == 4
        assert service["coalesced"] == 1
        assert service["shed"] == 1
        assert service["answers_by_tier"]["simulated"] == 4
        text = telemetry.format_summary(summary)
        assert "requests:           4 (shed 1)" in text
        assert "answer p50/p95/p99:" in text


class TestServerStartup:
    def test_failed_calibration_releases_the_port(self, monkeypatch):
        from repro.model import calibrate

        def broken(exp):
            raise RuntimeError("calibration failed")

        monkeypatch.setattr(calibrate, "fit", broken)
        server = DesignServer(_service(None), "127.0.0.1", 0)
        with pytest.raises(RuntimeError, match="calibration failed"):
            asyncio.run(server.start())
        assert server.port != 0
        with socket.socket() as again:
            again.bind(("127.0.0.1", server.port))
