"""Tests for the figure registry (repro.core.claims.GROUPS).

Every figure's text, and the text of the contention and islands sweeps,
is pinned by its SHA-256 at a tiny scale (``data/figure_digests.json``),
so a change that moves one printed digit fails here.  Each figure is
measured once: rendering it with its paper-vs-measured block runs each
of its sweeps exactly once.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import claims, sweeps
from repro.core.experiment import Experiment
from repro.core.parallel import CODE_VERSION
from repro.simulator import cacti

TINY = 0.02
CYCLES = 40_000
DIGESTS = Path(__file__).parent / "data" / "figure_digests.json"

#: The figure targets, in ``repro all`` order.
FIGURES = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
           "fig7", "fig8")


@pytest.fixture(scope="module")
def exp():
    return Experiment(scale=TINY, measure_cycles=CYCLES)


def _assert_pinned(name: str, text: str) -> None:
    pinned = json.loads(DIGESTS.read_text())["digests"][name]
    assert hashlib.sha256(text.encode()).hexdigest() == pinned, (
        f"{name}'s text changed:\n{text}")


def _counting(monkeypatch, name: str) -> list:
    """Count calls to the sweep ``name`` as the registry module sees it
    (it imports the sweep by name, so the patch goes there)."""
    calls = []
    sweep = getattr(claims, name)

    def counted(exp, kind, **kwargs):
        calls.append((kind, kwargs.get("const_latency")))
        return sweep(exp, kind, **kwargs)

    monkeypatch.setattr(claims, name, counted)
    return calls


def test_pins_cover_every_figure():
    doc = json.loads(DIGESTS.read_text())
    assert doc["code_version"] == CODE_VERSION
    assert (doc["scale"], doc["cycles"]) == (TINY, CYCLES)
    assert sorted(doc["digests"]) == sorted(
        [*FIGURES, "contention", "islands"])
    assert [name for name, group in claims.GROUPS.items()
            if group.render] == list(FIGURES)


class TestFastFigures:
    def test_table1_text(self):
        _assert_pinned("table1", claims.figure("table1", None))

    def test_figure1_sections(self):
        _assert_pinned("fig1", claims.figure("fig1", None))


@pytest.mark.slow
class TestSimulatedFigures:
    def test_figure4_has_both_panels(self, exp):
        _assert_pinned("fig4", claims.figure("fig4", exp))

    def test_figure5_has_eight_bars(self, exp):
        _assert_pinned("fig5", claims.figure("fig5", exp))

    def test_figure7_reports_both_machines(self, exp):
        _assert_pinned("fig7", claims.figure("fig7", exp))

    def test_every_simulated_figure_renders(self, exp):
        for name in ("fig2", "fig3", "fig6", "fig8"):
            _assert_pinned(name, claims.figure(name, exp))

    def test_sweep_texts(self, exp):
        _assert_pinned("contention", sweeps.contention_text(exp))
        _assert_pinned("islands", sweeps.islands_text(exp))


@pytest.mark.slow
class TestOneMeasurementPerFigure:
    def test_fig6_runs_each_cache_sweep_once(self, exp, monkeypatch):
        calls = _counting(monkeypatch, "cache_size_sweep")
        claims.figure("fig6", exp)
        assert calls == [(kind, latency) for kind in ("oltp", "dss")
                         for latency in (None, cacti.CONST_L2_LATENCY)]

    def test_fig8_runs_each_core_sweep_once(self, exp, monkeypatch):
        calls = _counting(monkeypatch, "core_count_sweep")
        claims.figure("fig8", exp)
        assert calls == [("oltp", None), ("dss", None)]
