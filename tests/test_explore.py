"""Design-space explorer tests: enumeration, Pareto pruning, and the
end-to-end prune-then-confirm loop at a tiny study scale."""

import pytest

from repro.core.experiment import Experiment
from repro.explore.explorer import ScreenRow, _pareto, explore, format_explore
from repro.explore.space import (
    Candidate,
    DEFAULT_L2_BANKS,
    candidate_area,
    default_budget_mm2,
    enumerate_candidates,
    quick_budget_mm2,
)
from repro.model.calibrate import ERROR_BOUND, KINDS, fit
from repro.simulator.topology import PLACEMENTS, IslandTopology

SCALE = 0.01
CYCLES = 5_000


class TestEnumeration:
    def test_quick_budget_holds_over_100_candidates(self):
        cands = enumerate_candidates(quick_budget_mm2())
        assert len(cands) >= 100

    def test_every_candidate_fits_the_budget(self):
        budget = quick_budget_mm2()
        for cand in enumerate_candidates(budget):
            assert cand.total_mm2 <= budget

    def test_both_camps_present_under_default_budget(self):
        camps = {c.camp for c in enumerate_candidates(default_budget_mm2())}
        assert camps == {"fc", "lc"}

    def test_enumeration_is_deterministic(self):
        budget = default_budget_mm2()
        assert enumerate_candidates(budget) == enumerate_candidates(budget)

    def test_larger_budget_is_a_superset(self):
        small = set(enumerate_candidates(quick_budget_mm2()))
        large = set(enumerate_candidates(default_budget_mm2()))
        assert small < large

    def test_area_matches_cost_models(self):
        for cand in enumerate_candidates(quick_budget_mm2())[:20]:
            core, l2 = candidate_area(cand.camp, cand.n_cores,
                                      cand.l2_nominal_mb)
            assert cand.core_mm2 == core and cand.l2_mm2 == l2

    def test_fat_core_costs_three_lean_cores(self):
        fat, _ = candidate_area("fc", 1, 1.0)
        lean, _ = candidate_area("lc", 3, 1.0)
        assert fat == pytest.approx(lean)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="budget"):
            enumerate_candidates(0.0)
        with pytest.raises(ValueError, match="budget"):
            enumerate_candidates(-5.0)
        with pytest.raises(ValueError, match="budget"):
            enumerate_candidates(float("nan"))
        with pytest.raises(ValueError, match="budget"):
            enumerate_candidates(float("inf"))

    def test_rejects_unknown_camp(self):
        with pytest.raises(ValueError, match="camp"):
            enumerate_candidates(200.0, core_counts={"xc": (1, 2)})

    def test_candidate_config_carries_the_banks(self):
        cand = enumerate_candidates(quick_budget_mm2())[0]
        config = cand.config(SCALE)
        assert config.hierarchy.l2_banks == cand.l2_banks
        assert config.hierarchy.n_cores == cand.n_cores


class TestPareto:
    @staticmethod
    def _row(camp, cores, size, ipc):
        core_mm2, l2_mm2 = candidate_area(camp, cores, size)
        cand = Candidate(camp=camp, n_cores=cores, l2_nominal_mb=size,
                         l2_banks=DEFAULT_L2_BANKS[0],
                         core_mm2=core_mm2, l2_mm2=l2_mm2)
        return ScreenRow(candidate=cand, kind="oltp",
                         predicted_ipc=ipc, utilization=0.5)

    def test_frontier_is_monotone_in_area_and_ipc(self):
        rows = [self._row("lc", c, s, ipc) for c, s, ipc in
                [(1, 1.0, 0.5), (2, 1.0, 0.9), (2, 4.0, 0.8),
                 (4, 1.0, 1.6), (4, 4.0, 2.0), (8, 1.0, 1.9)]]
        frontier = _pareto(rows)
        areas = [r.candidate.total_mm2 for r in frontier]
        ipcs = [r.predicted_ipc for r in frontier]
        assert areas == sorted(areas)
        assert ipcs == sorted(ipcs)
        assert len(set(ipcs)) == len(ipcs)  # strictly improving

    def test_dominated_points_are_dropped(self):
        # (2, 4.0) costs more than (2, 1.0) but predicts less: dominated.
        rows = [self._row("lc", 2, 1.0, 0.9), self._row("lc", 2, 4.0, 0.8)]
        frontier = _pareto(rows)
        assert len(frontier) == 1
        assert frontier[0].candidate.l2_nominal_mb == 1.0


@pytest.mark.slow
class TestExploreEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES, use_cache=False)
        return explore(exp, quick=True, validate=False, confirm_top=1)

    def test_screens_the_whole_space_fast(self, report):
        assert report.n_candidates >= 100
        assert report.n_screened == 2 * report.n_candidates
        assert report.screen_seconds < 5.0

    def test_frontier_confirmed_by_simulator(self, report):
        assert report.confirmed
        for kind in ("oltp", "dss"):
            frontier = report.frontier[kind]
            assert frontier
            areas = [r.candidate.total_mm2 for r in frontier]
            assert areas == sorted(areas)
        # Both camps' best chips are always in the confirmation set.
        assert {r.camp for r in report.confirmed} == {"fc", "lc"}

    def test_unsaturated_best_chips_rerun(self, report):
        # One response-mode run per (kind, camp).
        assert len(report.unsaturated) == 4
        assert all(r.metric == "response_cycles" for r in report.unsaturated)

    def test_all_four_checks_present(self, report):
        assert len(report.checks) == 4
        assert all(isinstance(v, bool) for v in report.checks.values())

    def test_format_is_complete(self, report):
        text = format_explore(report)
        assert "predicted Pareto frontier" in text
        assert "simulator-confirmed frontier" in text
        assert "screening MAE" in text
        assert "response mode" in text

    def test_budget_excluding_a_camp_is_an_error(self):
        exp = Experiment(scale=SCALE, measure_cycles=CYCLES, use_cache=False)
        # A budget below one fat core + the smallest L2 leaves fc empty.
        fat_core, l2 = candidate_area("fc", 1, 1.0)
        with pytest.raises(ValueError, match="fc"):
            explore(exp, budget_mm2=(fat_core + l2) * 0.9, validate=False)


@pytest.mark.slow
class TestIslandExploration:
    """The sockets x placement axis: anchors, winners, corrected holdouts."""

    SOCKETS = (2,)

    @pytest.fixture(scope="class")
    def exp(self):
        return Experiment(scale=SCALE, measure_cycles=CYCLES, use_cache=False)

    @pytest.fixture(scope="class")
    def model(self, exp):
        return fit(exp)

    @pytest.fixture(scope="class")
    def report(self, exp, model):
        return explore(exp, quick=True, model=model, validate=False,
                       sockets=self.SOCKETS, placements=PLACEMENTS)

    def test_one_anchor_per_cell_and_one_winner_per_camp(self, report):
        anchors = [(r.kind, r.sockets, r.placement, r.camp)
                   for r in report.confirmed if r.role == "anchor"]
        assert sorted(anchors) == sorted(
            (kind, s, placement, camp) for kind in KINDS
            for s in self.SOCKETS for placement in PLACEMENTS
            for camp in ("fc", "lc"))
        winners = [(w.kind, w.sockets, w.camp) for w in report.winners]
        assert sorted(winners) == sorted(
            (kind, s, camp) for kind in KINDS for s in self.SOCKETS
            for camp in ("fc", "lc"))

    def test_holdouts_carry_their_cell_correction(self, report, model):
        labels = {c.label: c for c in enumerate_candidates(quick_budget_mm2())}
        anchors = {(r.kind, r.sockets, r.placement, r.camp): r
                   for r in report.confirmed if r.role == "anchor"}
        holdouts = [r for r in report.confirmed if r.role == "holdout"]
        assert holdouts
        for row in holdouts:
            anchor = anchors[(row.kind, row.sockets, row.placement, row.camp)]
            config = labels[row.label].config(
                SCALE, IslandTopology(n_sockets=row.sockets))
            raw = model.predict(config, row.kind, "saturated",
                                placement=row.placement).ipc
            assert raw <= anchor.predicted  # the runner-up ranks below
            assert row.predicted == raw * (anchor.measured / anchor.predicted)

    def test_holdout_error_within_bound(self, report):
        assert report.screening_mae <= ERROR_BOUND, (
            f"holdout MAE {report.screening_mae:.1%}")
        assert report.within_bound

    def test_two_checks_per_kind_and_socket_count(self, report):
        assert len(report.checks) == 2 * len(KINDS) * len(self.SOCKETS)
        assert all(" @ 2s: " in name for name in report.checks)
