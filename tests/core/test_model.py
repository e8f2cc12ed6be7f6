"""RpStacksModel prediction/inspection tests."""

import numpy as np
import pytest

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.core.model import GenerationStats, RpStacksModel


def vec(**units):
    out = np.zeros(NUM_EVENTS)
    for name, value in units.items():
        out[EventType[name]] = value
    return out


@pytest.fixture
def two_segment_model():
    seg0 = np.stack([vec(FP_ADD=4, BASE=10), vec(L1D=5, LD=2, BASE=8)])
    seg1 = np.stack([vec(MEM_D=1, BASE=6)])
    return RpStacksModel(
        [seg0, seg1], baseline=LatencyConfig(), num_uops=100
    )


class TestPrediction:
    def test_sums_per_segment_maxima(self, two_segment_model):
        base = LatencyConfig()
        # seg0: max(4*6+10, 5*4+2*2+8) = max(34, 32) = 34; seg1: 139.
        assert two_segment_model.predict_cycles(base) == 34 + 139

    def test_repricing_switches_segment_winner(self, two_segment_model):
        fast_fp = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        # seg0 now: max(14, 32) = 32.
        assert two_segment_model.predict_cycles(fast_fp) == 32 + 139

    def test_predict_cpi_normalises(self, two_segment_model):
        base = LatencyConfig()
        assert two_segment_model.predict_cpi(base) == pytest.approx(
            (34 + 139) / 100
        )

    def test_predict_many_matches_loop(self, two_segment_model):
        base = LatencyConfig()
        points = [
            base,
            base.with_overrides({EventType.FP_ADD: 1}),
            base.with_overrides({EventType.MEM_D: 10, EventType.L1D: 1}),
        ]
        batch = two_segment_model.predict_many(points)
        singles = [two_segment_model.predict_cycles(p) for p in points]
        assert np.allclose(batch, singles)


class TestInspection:
    def test_representative_stack_sums_winners(self, two_segment_model):
        stack = two_segment_model.representative_stack(LatencyConfig())
        # Winners at baseline: seg0 row 0, seg1 row 0.
        assert stack[EventType.FP_ADD] == 4
        assert stack[EventType.MEM_D] == 1
        assert stack[EventType.L1D] == 0

    def test_representative_stack_tracks_config(self, two_segment_model):
        fast_fp = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        stack = two_segment_model.representative_stack(fast_fp)
        assert stack[EventType.L1D] == 5  # memory path wins segment 0

    def test_bottlenecks_ranked(self, two_segment_model):
        top = two_segment_model.bottlenecks(LatencyConfig(), top=2)
        assert top[0][0] == "MemD"
        assert top[0][1] == pytest.approx(133 / 100)

    def test_counts(self, two_segment_model):
        assert two_segment_model.num_segments == 2
        assert two_segment_model.num_paths == 3

    def test_stacks_accessor_returns_value_objects(self, two_segment_model):
        stacks = two_segment_model.stacks(0)
        assert len(stacks) == 2
        assert stacks[0][EventType.FP_ADD] == 4


class TestValidation:
    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            RpStacksModel([], baseline=LatencyConfig(), num_uops=10)

    def test_rejects_empty_segment(self):
        with pytest.raises(ValueError):
            RpStacksModel(
                [np.zeros((0, NUM_EVENTS))],
                baseline=LatencyConfig(),
                num_uops=10,
            )

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            RpStacksModel(
                [np.zeros((1, 3))], baseline=LatencyConfig(), num_uops=10
            )

    @pytest.mark.parametrize(
        "bad",
        [0.5, float("nan"), float("inf"), -5.0],
        ids=["fractional", "nan", "inf", "negative"],
    )
    def test_rejects_non_integer_count_rows(self, bad):
        row = vec(BASE=10, L1D=2)
        row[EventType.FP_ADD] = bad
        with pytest.raises(ValueError, match="non-negative integers"):
            RpStacksModel(
                [np.stack([vec(BASE=3), row])],
                baseline=LatencyConfig(),
                num_uops=10,
            )

    def test_default_stats(self):
        model = RpStacksModel(
            [np.zeros((1, NUM_EVENTS))],
            baseline=LatencyConfig(),
            num_uops=10,
        )
        assert isinstance(model.stats, GenerationStats)


class TestExplainChange:
    def test_deltas_sum_to_cpi_change(self, two_segment_model):
        base = LatencyConfig()
        after = base.with_overrides({EventType.FP_ADD: 1})
        deltas = two_segment_model.explain_change(base, after)
        cpi_change = two_segment_model.predict_cpi(
            after
        ) - two_segment_model.predict_cpi(base)
        assert sum(deltas.values()) == pytest.approx(cpi_change)

    def test_hidden_path_shows_as_positive_foreign_delta(
        self, two_segment_model
    ):
        # Optimising FP_ADD flips segment 0's winner to the memory
        # stack: L1D/LD contributions *appear* even though their
        # latencies did not change.
        base = LatencyConfig()
        after = base.with_overrides({EventType.FP_ADD: 1})
        deltas = two_segment_model.explain_change(base, after)
        assert deltas[EventType.L1D] > 0
        assert deltas[EventType.FP_ADD] < 0

    def test_no_change_no_deltas(self, two_segment_model):
        base = LatencyConfig()
        assert two_segment_model.explain_change(base, base) == {}


class TestSegmentBottlenecks:
    def test_one_row_per_segment(self, two_segment_model):
        rows = two_segment_model.segment_bottlenecks(LatencyConfig())
        assert [index for index, _label, _share in rows] == [0, 1]

    def test_labels_track_winning_stack(self, two_segment_model):
        rows = two_segment_model.segment_bottlenecks(LatencyConfig())
        # Segment 0's winner at baseline is the FP stack (34 > 32);
        # segment 1's only stack is memory-dominated.
        assert rows[0][1] == "Fadd"
        assert rows[1][1] == "MemD"

    def test_timeline_shifts_with_pricing(self, two_segment_model):
        fast_fp = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        rows = two_segment_model.segment_bottlenecks(fast_fp)
        assert rows[0][1] == "L1D"  # the memory stack wins segment 0

    def test_shares_are_fractions(self, two_segment_model):
        for _idx, _label, share in two_segment_model.segment_bottlenecks(
            LatencyConfig()
        ):
            assert 0.0 < share <= 1.0


class TestSensitivity:
    def test_gradient_matches_finite_difference(self, two_segment_model):
        base = LatencyConfig()
        gradient = two_segment_model.sensitivity(base)
        for event in (EventType.FP_ADD, EventType.MEM_D):
            bumped = base.with_overrides({event: base[event] + 1})
            finite = two_segment_model.predict_cpi(
                bumped
            ) - two_segment_model.predict_cpi(base)
            assert gradient.get(event, 0.0) == pytest.approx(finite)

    def test_zero_gradient_for_absent_events(self, two_segment_model):
        gradient = two_segment_model.sensitivity(LatencyConfig())
        assert EventType.FP_DIV not in gradient

    def test_gradient_shifts_with_the_winner(self, two_segment_model):
        fast_fp = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        gradient = two_segment_model.sensitivity(fast_fp)
        # Memory stack wins segment 0 now: L1D has leverage, FP_ADD none.
        assert gradient.get(EventType.L1D, 0.0) > 0
        assert EventType.FP_ADD not in gradient


class TestMatrixPrediction:
    def test_predict_many_of_empty_sequence_is_empty(self, two_segment_model):
        batch = two_segment_model.predict_many([])
        assert isinstance(batch, np.ndarray)
        assert batch.shape == (0,)

    def test_matrix_chunk_matches_per_point(self, two_segment_model):
        base = LatencyConfig()
        points = [
            base,
            base.with_overrides({EventType.FP_ADD: 1}),
            base.with_overrides({EventType.MEM_D: 10, EventType.L1D: 1}),
            base.with_overrides({EventType.L2D: 1, EventType.LD: 5}),
        ]
        thetas = np.stack([p.as_vector() for p in points], axis=1)
        batch = two_segment_model.predict_cycles_matrix(thetas)
        singles = [two_segment_model.predict_cycles(p) for p in points]
        assert list(batch) == singles  # exact, not approx

    def test_empty_matrix_chunk_is_priced_as_empty(self, two_segment_model):
        thetas = np.empty((NUM_EVENTS, 0))
        assert two_segment_model.predict_cycles_matrix(thetas).shape == (0,)

    def test_bad_matrix_shape_rejected(self, two_segment_model):
        with pytest.raises(ValueError, match="NUM_EVENTS"):
            two_segment_model.predict_cycles_matrix(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="NUM_EVENTS"):
            two_segment_model.predict_cycles_matrix(np.zeros(NUM_EVENTS))
