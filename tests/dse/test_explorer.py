"""Explorer tests: sweeping, target filtering, cost and Pareto logic."""

import numpy as np
import pytest

from repro.common.config import LatencyConfig
from repro.common.events import EventType
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import (
    Candidate,
    Explorer,
    default_cost_model,
)


class LinearPredictor:
    """Deterministic stand-in: CPI = L1D latency / 4."""

    num_uops = 100

    def predict_cpi(self, latency):
        return latency[EventType.L1D] / 4.0

    def predict_cycles(self, latency):
        return self.predict_cpi(latency) * self.num_uops


class BatchPredictor(LinearPredictor):
    """Same model, exposing the vectorised interface."""

    def predict_many(self, latencies):
        return np.array(
            [self.predict_cycles(latency) for latency in latencies]
        )


@pytest.fixture
def l1d_space():
    return DesignSpace.from_mapping({EventType.L1D: [1, 2, 4, 8]})


class TestExploration:
    def test_all_points_priced(self, l1d_space):
        result = Explorer(LinearPredictor()).explore(l1d_space)
        assert result.num_points == 4
        assert result.num_meeting_target == 4

    def test_target_filters_candidates(self, l1d_space):
        result = Explorer(LinearPredictor()).explore(
            l1d_space, target_cpi=0.6
        )
        kept = {c.latency[EventType.L1D] for c in result.candidates}
        assert kept == {1, 2}

    def test_batch_and_scalar_predictors_agree(self, l1d_space):
        scalar = Explorer(LinearPredictor()).explore(l1d_space)
        batch = Explorer(BatchPredictor()).explore(l1d_space)
        assert [c.predicted_cpi for c in scalar.candidates] == pytest.approx(
            [c.predicted_cpi for c in batch.candidates]
        )

    def test_best_is_cheapest_meeting_target(self, l1d_space):
        result = Explorer(LinearPredictor()).explore(
            l1d_space, target_cpi=0.6
        )
        # L1D=2 needs less optimisation effort than L1D=1.
        assert result.best().latency[EventType.L1D] == 2

    def test_best_without_candidates_raises(self, l1d_space):
        result = Explorer(LinearPredictor()).explore(
            l1d_space, target_cpi=0.01
        )
        with pytest.raises(ValueError):
            result.best()


class TestCostModel:
    def test_baseline_costs_nothing(self):
        base = LatencyConfig()
        assert default_cost_model(base, base) == 0.0

    def test_halving_one_event_costs_one(self):
        base = LatencyConfig()
        point = base.with_overrides({EventType.L1D: 2})
        assert default_cost_model(point, base) == pytest.approx(1.0)

    def test_relaxing_latency_is_free(self):
        base = LatencyConfig()
        point = base.with_overrides({EventType.L1D: 8})
        assert default_cost_model(point, base) == 0.0

    def test_costs_accumulate_across_events(self):
        base = LatencyConfig()
        point = base.with_overrides({EventType.L1D: 2, EventType.FP_ADD: 3})
        assert default_cost_model(point, base) == pytest.approx(2.0)


class TestPareto:
    def make_result(self):
        candidates = [
            Candidate(LatencyConfig(), predicted_cpi=1.0, cost=0.0),
            Candidate(LatencyConfig(), predicted_cpi=0.8, cost=1.0),
            Candidate(LatencyConfig(), predicted_cpi=0.9, cost=2.0),  # dominated
            Candidate(LatencyConfig(), predicted_cpi=0.5, cost=3.0),
        ]
        from repro.dse.explorer import ExplorationResult

        return ExplorationResult(
            candidates=candidates, num_points=4, target_cpi=None
        )

    def test_front_excludes_dominated(self):
        front = self.make_result().pareto_front()
        cpis = [c.predicted_cpi for c in front]
        assert cpis == [1.0, 0.8, 0.5]

    def test_front_sorted_by_cost(self):
        front = self.make_result().pareto_front()
        costs = [c.cost for c in front]
        assert costs == sorted(costs)


def test_explorer_with_real_session(gamess_session):
    """The Fig 6a loop: sweep bottleneck latencies, find target designs."""
    space = DesignSpace.from_mapping(
        {
            EventType.L1D: [1, 2, 4],
            EventType.FP_ADD: [1, 3, 6],
            EventType.FP_MUL: [1, 3, 6],
        }
    )
    target = gamess_session.baseline_cpi * 0.85
    result = gamess_session.explore(space, target_cpi=target)
    assert result.num_points == 27
    assert 0 < result.num_meeting_target < 27
    best = result.best()
    # The chosen design must actually meet the target in the simulator
    # within the method's error band.
    simulated = gamess_session.simulate(best.latency).cpi
    assert simulated <= target * 1.10


class NoUopsPredictor:
    """Has a batch interface but no µop count (regression: the explorer
    used to assume predict_many implies num_uops)."""

    def predict_cpi(self, latency):
        return latency[EventType.L1D] / 4.0

    def predict_many(self, latencies):  # pragma: no cover - must be unused
        raise AssertionError("batch path requires num_uops")


class TestPredictAllGuards:
    def test_predictor_without_num_uops_uses_scalar_path(self, l1d_space):
        result = Explorer(NoUopsPredictor()).explore(l1d_space)
        assert [c.predicted_cpi for c in result.candidates] == [
            0.25, 0.5, 1.0, 2.0
        ]

    def test_empty_point_list_predicts_empty(self):
        cpis = Explorer(BatchPredictor())._predict_all([])
        assert len(cpis) == 0


class TestZeroCycleCost:
    def test_zero_cycle_target_costs_more_than_one_cycle(self):
        base = LatencyConfig()
        one = base.with_overrides({EventType.L1D: 1})
        zero = base.with_overrides({EventType.L1D: 0})
        assert default_cost_model(zero, base) > default_cost_model(one, base)

    def test_cost_is_monotone_toward_zero(self):
        base = LatencyConfig()
        costs = [
            default_cost_model(
                base.with_overrides({EventType.MEM_D: cycles}), base
            )
            for cycles in (133, 66, 12, 4, 1, 0)
        ]
        assert all(b > a for a, b in zip(costs, costs[1:]))
