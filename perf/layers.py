"""Per-layer instrumentation: which entry points the traced run wraps,
and how their spans become the per-layer metrics.

Spans are opened from outside the program, around the public entry point
of each layer (the module names below are the layer names):

- ``workloads``: ``TpccDatabase``/``TpchDatabase`` construction and
  ``run_client`` (engine execution plus trace emission);
- ``workloads.tracestore``: ``TraceStore.get``/``put``;
- ``replay``: ``compute_warm_state`` (a ``None`` return is a bail to the
  interpreted warm walk);
- ``core.parallel``: ``execute`` (one simulation) and ``ResultCache``
  ``get``/``put``.  ``execute`` is handed a live ``RunProbe`` in place of
  the inert default; the probe only reads, so results are unchanged, and
  its warm/measure phase times and counters are summed here;
- ``model``: ``calibrate.fit``, ``calibrate.cross_validate`` and
  ``CalibratedModel.predict``;
- ``serve``: ``DesignService.submit`` (tagged with the answer's tier) and
  ``DesignService.stats``.
"""

from __future__ import annotations

import statistics

#: Every per-layer metric, in report order: name -> (unit, better).
PER_LAYER = {
    "workloads.build_s": ("s", "lower"),
    "workloads.build_accesses": ("count", "lower"),
    "workloads.build_ns_per_access": ("ns", "lower"),
    "tracestore.get_s": ("s", "lower"),
    "tracestore.put_s": ("s", "lower"),
    "tracestore.hits": ("count", "higher"),
    "tracestore.misses": ("count", "lower"),
    "simulator.warm_s": ("s", "lower"),
    "simulator.warm_refs": ("count", "lower"),
    "replay.warm_kernel_s": ("s", "lower"),
    "replay.warm_kernel_calls": ("count", "lower"),
    "replay.warm_kernel_bails": ("count", "lower"),
    "simulator.measure_s": ("s", "lower"),
    "simulator.measure_fc_s": ("s", "lower"),
    "simulator.measure_lc_s": ("s", "lower"),
    "simulator.accesses": ("count", "lower"),
    "simulator.retired": ("count", "higher"),
    "simulator.ns_per_access": ("ns", "lower"),
    "simulator.batched_steps": ("count", "higher"),
    "replay.l1_filter_hits": ("count", "higher"),
    "replay.l1_filter_bypass": ("count", "lower"),
    "parallel.execute_s": ("s", "lower"),
    "parallel.execute_calls": ("count", "lower"),
    "parallel.execute_other_s": ("s", "lower"),
    "parallel.cache_get_s": ("s", "lower"),
    "parallel.cache_put_s": ("s", "lower"),
    "parallel.cache_hits": ("count", "higher"),
    "parallel.cache_misses": ("count", "lower"),
    "model.fit_s": ("s", "lower"),
    "model.validate_s": ("s", "lower"),
    "model.predict_calls": ("count", "lower"),
    "model.predict_us": ("us", "lower"),
    "explore.screen_s": ("s", "lower"),
    "serve.sim_p50_ms": ("ms", "lower"),
    "serve.cache_p50_ms": ("ms", "lower"),
    "serve.sim_answers": ("count", "lower"),
    "serve.cache_answers": ("count", "higher"),
    "serve.coalesced": ("count", "higher"),
    "serve.shed": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Layer groups only some workloads enter; the others report 0 there.
ENTERED_BY = {
    "tracestore.": ("explore-quick",),
    "model.": ("explore-quick", "serve"),
    "explore.": ("explore-quick",),
    "serve.": ("serve",),
}


def entered(metric: str, workloads) -> bool:
    """Whether any of ``workloads`` enters the layer ``metric`` measures."""
    for prefix, users in ENTERED_BY.items():
        if metric.startswith(prefix):
            return any(w in users for w in workloads)
    return True


def _set(key: str, value_of):
    """An ``observe`` hook storing ``value_of(result)`` as attribute
    ``key`` on the span."""
    def observe(rec, args, kwargs, result):
        rec.attrs[key] = value_of(result)
    return observe


def instrument(tracer) -> None:
    """Wrap every layer entry point listed in the module docstring.

    Undo with ``tracer.unwrap_all()``.
    """
    from repro.core import experiment, parallel
    from repro.model import calibrate
    from repro.serve.service import DesignService
    from repro.simulator import replay
    from repro.simulator.profiling import NULL_PROBE, RunProbe
    from repro.workloads.tpcc import TpccDatabase
    from repro.workloads.tpch import TpchDatabase
    from repro.workloads.tracestore import TraceStore

    accesses = _set("accesses", len)
    hit = _set("hit", lambda r: r is not None)
    for cls, tag in ((TpccDatabase, "tpcc"), (TpchDatabase, "tpch")):
        tracer.wrap(cls, "__init__", f"workloads.{tag}.init")
        tracer.wrap(cls, "run_client", f"workloads.{tag}.run_client",
                    observe=accesses)
    tracer.wrap(TraceStore, "get", "tracestore.get", observe=hit)
    tracer.wrap(TraceStore, "put", "tracestore.put")
    tracer.wrap(replay, "compute_warm_state", "replay.compute_warm_state",
                observe=_set("bail", lambda r: r is None))
    tracer.wrap(parallel.ResultCache, "get", "parallel.cache_get",
                observe=hit)
    tracer.wrap(parallel.ResultCache, "put", "parallel.cache_put")
    tracer.wrap(calibrate, "fit", "model.fit")
    tracer.wrap(calibrate, "cross_validate", "model.validate")
    tracer.wrap(calibrate.CalibratedModel, "predict", "model.predict")
    tracer.wrap(DesignService, "submit", "serve.submit",
                observe=_set("tier", lambda answer: answer.tier))
    tracer.wrap(DesignService, "stats", "serve.stats",
                observe=_set("stats", lambda doc: {
                    "coalesced": doc["coalesced"], "shed": doc["shed"]}))

    original = parallel.execute

    def execute(spec, scale, default_cycles=parallel.DEFAULT_MEASURE_CYCLES,
                probe=NULL_PROBE):
        live = RunProbe() if probe is NULL_PROBE else probe
        with tracer.span("parallel.execute",
                         camp=spec.config.core.camp) as rec:
            result = original(spec, scale, default_cycles, probe=live)
            rec.attrs["phases"] = dict(live.phases)
            rec.attrs["counters"] = dict(live.counters)
            rec.attrs["retired"] = live.gauges.get("retired", 0)
        return result

    # ``experiment`` imported ``execute`` by name; both bindings must see
    # the wrapper.
    tracer.patch(parallel, "execute", execute)
    tracer.patch(experiment, "execute", execute)


def layer_metrics(spans, screen_s: float = 0.0) -> dict[str, float]:
    """Derive every :data:`PER_LAYER` metric except
    ``trace.overhead_pct`` (which needs an untraced run) from ``spans``.

    Layers a workload never enters report 0.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in spans}

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name, pred=lambda s: True):
        return sum(1 for s in by_name.get(name, ()) if pred(s))

    def ratio(num, den, unit):
        return num / den * unit if den else 0.0

    def is_build(name):
        return name.startswith("workloads.")

    out: dict[str, float] = {}
    build = [s for s in spans if is_build(s.name)]
    out["workloads.build_s"] = sum(
        s.duration for s in build
        if s.parent is None or not is_build(names[s.parent]))
    out["workloads.build_accesses"] = sum(s.attrs.get("accesses", 0)
                                          for s in build)
    out["workloads.build_ns_per_access"] = ratio(
        out["workloads.build_s"], out["workloads.build_accesses"], 1e9)

    out["tracestore.get_s"] = total("tracestore.get")
    out["tracestore.put_s"] = total("tracestore.put")
    out["tracestore.hits"] = count("tracestore.get", lambda s: s.attrs["hit"])
    out["tracestore.misses"] = count("tracestore.get",
                                     lambda s: not s.attrs["hit"])

    execs = by_name.get("parallel.execute", [])

    def phase(name, camp=None):
        return sum(s.attrs["phases"].get(name, 0.0) for s in execs
                   if camp is None or s.attrs["camp"] == camp)

    def counter(name):
        return sum(s.attrs["counters"].get(name, 0) for s in execs)

    out["simulator.warm_s"] = phase("warm")
    out["simulator.warm_refs"] = counter("warm_refs")
    out["replay.warm_kernel_s"] = total("replay.compute_warm_state")
    out["replay.warm_kernel_calls"] = count("replay.compute_warm_state")
    out["replay.warm_kernel_bails"] = count("replay.compute_warm_state",
                                            lambda s: s.attrs["bail"])
    out["simulator.measure_s"] = phase("measure")
    out["simulator.measure_fc_s"] = phase("measure", "fc")
    out["simulator.measure_lc_s"] = phase("measure", "lc")
    out["simulator.accesses"] = counter("data_accesses")
    out["simulator.retired"] = sum(s.attrs["retired"] for s in execs)
    out["simulator.ns_per_access"] = ratio(
        out["simulator.measure_s"], out["simulator.accesses"], 1e9)
    out["simulator.batched_steps"] = counter("batched_steps")
    out["replay.l1_filter_hits"] = counter("l1_filter_hits")
    out["replay.l1_filter_bypass"] = counter("l1_filter_bypass")

    # Time inside execute that is neither warm nor measure nor a child
    # layer (workload builds, store reads): machine construction, slot
    # assignment, result assembly.  The warm kernel runs inside the warm
    # phase, so it is not subtracted twice.
    child_s: dict[int, float] = {}
    for s in spans:
        if (s.parent is not None and names[s.parent] == "parallel.execute"
                and not s.name.startswith("replay.")):
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    out["parallel.execute_s"] = total("parallel.execute")
    out["parallel.execute_calls"] = len(execs)
    out["parallel.execute_other_s"] = sum(
        s.duration - s.attrs["phases"].get("warm", 0.0)
        - s.attrs["phases"].get("measure", 0.0) - child_s.get(s.id, 0.0)
        for s in execs)
    out["parallel.cache_get_s"] = total("parallel.cache_get")
    out["parallel.cache_put_s"] = total("parallel.cache_put")
    out["parallel.cache_hits"] = count("parallel.cache_get",
                                       lambda s: s.attrs["hit"])
    out["parallel.cache_misses"] = count("parallel.cache_get",
                                         lambda s: not s.attrs["hit"])

    out["model.fit_s"] = total("model.fit")
    out["model.validate_s"] = total("model.validate")
    out["model.predict_calls"] = count("model.predict")
    out["model.predict_us"] = ratio(total("model.predict"),
                                    out["model.predict_calls"], 1e6)
    out["explore.screen_s"] = screen_s

    submits = by_name.get("serve.submit", [])

    def p50_ms(tier):
        walls = [s.duration for s in submits if s.attrs.get("tier") == tier]
        return statistics.median(walls) * 1e3 if walls else 0.0

    out["serve.sim_p50_ms"] = p50_ms("simulated")
    out["serve.cache_p50_ms"] = p50_ms("cache")
    out["serve.sim_answers"] = count(
        "serve.submit", lambda s: s.attrs.get("tier") == "simulated")
    out["serve.cache_answers"] = count(
        "serve.submit", lambda s: s.attrs.get("tier") == "cache")
    stats = by_name.get("serve.stats", [])
    last = stats[-1].attrs["stats"] if stats else {}
    out["serve.coalesced"] = last.get("coalesced", 0)
    out["serve.shed"] = last.get("shed", 0)
    return out
