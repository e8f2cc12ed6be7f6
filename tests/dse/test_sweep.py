"""Streaming sweep-engine tests: differential exactness, memory bounds,
edge cases and the chunked prediction property."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.core.model import RpStacksModel
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import Explorer, SweepMetrics, default_cost_model
from repro.dse.pipeline import analyze
from repro.dse.sweep import _prune, sweep_space
from repro.obs.observer import Observer
from repro.workloads.suite import make_workload


def vec(**units):
    out = np.zeros(NUM_EVENTS)
    for name, value in units.items():
        out[EventType[name]] = value
    return out


@pytest.fixture(scope="module")
def model():
    """A small hand-built model with winner switches in both segments."""
    seg0 = np.stack([vec(FP_ADD=4, BASE=10), vec(L1D=5, LD=2, BASE=8)])
    seg1 = np.stack([vec(MEM_D=1, BASE=6), vec(L2D=7, BASE=20)])
    return RpStacksModel(
        [seg0, seg1], baseline=LatencyConfig(), num_uops=100
    )


@pytest.fixture(scope="module")
def reference_space():
    return DesignSpace.from_mapping(
        {
            EventType.L1D: [1, 2, 3, 4],
            EventType.FP_ADD: [1, 2, 4, 6],
            EventType.MEM_D: [33, 66, 133],
            EventType.L2D: [3, 6, 12],
        }
    )


def front_key(result):
    return [
        (c.latency, c.predicted_cpi, c.cost) for c in result.pareto_front()
    ]


class TestDifferential:
    """The acceptance criterion: streamed == materialised, bit for bit."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000, 10**6])
    def test_front_bit_identical_across_chunk_sizes(
        self, model, reference_space, chunk_size
    ):
        seed = Explorer(model).explore(reference_space)
        swept = sweep_space(model, reference_space, chunk_size=chunk_size)
        assert front_key(swept) == front_key(seed)

    @pytest.mark.parametrize("chunk_size", [13, 50])
    def test_front_bit_identical_with_target(
        self, model, reference_space, chunk_size
    ):
        target = model.predict_cpi(LatencyConfig()) * 0.9
        seed = Explorer(model).explore(reference_space, target_cpi=target)
        swept = sweep_space(
            model, reference_space, target_cpi=target, chunk_size=chunk_size
        )
        assert front_key(swept) == front_key(seed)
        assert swept.num_meeting_target == seed.num_meeting_target

    def test_candidate_set_independent_of_chunking(self, model, reference_space):
        """The conservative prune is confluent: any chunk size yields the
        identical surviving candidate list."""
        runs = [
            sweep_space(model, reference_space, chunk_size=5),
            sweep_space(model, reference_space, chunk_size=37),
            sweep_space(model, reference_space, chunk_size=16),
        ]
        keys = [
            [(c.latency, c.predicted_cpi, c.cost) for c in run.candidates]
            for run in runs
        ]
        assert keys[0] == keys[1] == keys[2]

    def test_real_model_front_bit_identical(self, gamess_session):
        space = DesignSpace.from_mapping(
            {
                EventType.L1D: [1, 2, 4],
                EventType.FP_ADD: [1, 3, 6],
                EventType.FP_MUL: [1, 3, 6],
                EventType.L2D: [3, 6, 12],
            },
            base=gamess_session.config.latency,
        )
        target = gamess_session.baseline_cpi * 0.9
        seed = gamess_session.explore(space, target_cpi=target)
        swept = sweep_space(
            gamess_session.rpstacks, space, target_cpi=target, chunk_size=17
        )
        assert front_key(swept) == front_key(seed)
        assert swept.num_meeting_target == seed.num_meeting_target


class TestStreaming:
    def test_memory_stays_bounded(self, model):
        """A space much larger than any chunk never holds more than a
        few candidates at once — the whole point of the engine."""
        space = DesignSpace.from_mapping(
            {
                EventType.L1D: [1, 2, 3, 4],
                EventType.FP_ADD: [1, 2, 3, 4, 5, 6],
                EventType.MEM_D: list(range(10, 134, 4)),
                EventType.L2D: list(range(1, 13)),
            }
        )
        assert space.num_points > 8000
        result = sweep_space(model, space, chunk_size=256)
        assert result.metrics.peak_candidates < 600
        assert result.metrics.peak_candidates >= len(result.candidates)

    def test_one_chunk_of_pricing_vectors_is_live_at_a_time(self, model):
        values = list(range(1, 11))
        space = DesignSpace.from_mapping(
            {
                event: values
                for event in (
                    EventType.L1D, EventType.FP_ADD, EventType.L2D,
                    EventType.LD, EventType.ST,
                )
            }
        )
        chunk = 50_000
        assert space.num_points >= 2 * chunk
        thetas_bytes = NUM_EVENTS * chunk * 8
        tracemalloc.start()
        try:
            sweep_space(model, space, chunk_size=chunk)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Everything else a chunk allocates is a few (chunk,) vectors;
        # a second live theta matrix would double the dominant term.
        assert peak < 1.6 * thetas_bytes

    def test_top_k_caps_the_candidate_set(self, model, reference_space):
        capped = sweep_space(model, reference_space, chunk_size=16, top_k=3)
        assert len(capped.candidates) <= 3
        full = sweep_space(model, reference_space, chunk_size=16)
        # The cap keeps the best-(cost, cpi) prefix of the full set.
        assert [
            (c.latency, c.cost) for c in capped.candidates
        ] == [(c.latency, c.cost) for c in full.candidates[:3]]

    def test_metrics_are_recorded(self, model, reference_space):
        result = sweep_space(model, reference_space, chunk_size=16)
        metrics = result.metrics
        assert metrics.num_points == reference_space.num_points
        assert metrics.num_chunks == -(-reference_space.num_points // 16)
        assert metrics.chunk_size == 16
        assert metrics.points_per_second > 0
        assert metrics.total_seconds > 0
        assert metrics.max_chunk_seconds >= metrics.mean_chunk_seconds > 0
        assert "points/s" in metrics.describe()

    def test_metrics_serialise_in_as_dict(self, model, reference_space):
        summary = sweep_space(model, reference_space, chunk_size=16).as_dict()
        assert summary["metrics"]["chunk_size"] == 16
        assert summary["num_points"] == reference_space.num_points

    def test_metrics_from_fixed_chunk_timings(self):
        seconds = [0.25, 1.0, 0.5, 0.125, 2.0, 0.75, 0.5, 0.25, 1.5, 0.375]
        metrics = SweepMetrics.from_chunk_seconds(
            seconds,
            num_points=2_900,
            total_seconds=7.25,
            chunk_size=300,
            peak_candidates=12,
        )
        assert metrics.num_chunks == 10
        assert metrics.max_chunk_seconds == 2.0
        assert metrics.mean_chunk_seconds == pytest.approx(0.725)
        # Sorted, the 95th percentile sits 0.55 of the way from the
        # ninth value (1.5) to the tenth (2.0).
        assert metrics.p95_chunk_seconds == pytest.approx(1.775)
        # The last eight chunks take 6.0 s for 8 x 300 points.
        assert metrics.rolling_points_per_second == pytest.approx(400.0)
        assert metrics.points_per_second == pytest.approx(400.0)
        assert metrics.peak_candidates == 12
        assert metrics.chunk_size == 300
        empty = SweepMetrics.from_chunk_seconds(
            [], num_points=0, total_seconds=0.5, chunk_size=300,
            peak_candidates=0,
        )
        assert (empty.num_chunks, empty.max_chunk_seconds) == (0, 0.0)
        assert (empty.p95_chunk_seconds, empty.rolling_points_per_second) == (
            0.0, 0.0
        )

    def test_enabled_observer_gets_the_run_metrics(
        self, model, reference_space
    ):
        obs = Observer(enabled=True, progress_stream=None)
        target = model.predict_cpi(LatencyConfig()) * 0.9
        result = sweep_space(
            model, reference_space, target_cpi=target, chunk_size=16, obs=obs
        )
        exported = obs.metrics.export()
        # Chunks of 16 points are priced in one-point blocks, which
        # always keep one stack, and the block screen drops exactly the
        # points that a strictly cheaper point of their chunk with no
        # higher CPI dominates.  The rest of those meeting the target
        # reach the exact prune.
        points = reference_space.points()
        cpis = [model.predict_cpi(point) for point in points]
        costs = [
            default_cost_model(point, reference_space.base)
            for point in points
        ]
        undominated = 0
        for lo in range(0, len(points), 16):
            chunk = range(lo, min(lo + 16, len(points)))
            undominated += sum(
                cpis[p] <= target
                and not any(
                    costs[q] < costs[p] and cpis[q] <= cpis[p] for q in chunk
                )
                for p in chunk
            )
        assert undominated == 46
        assert result.num_meeting_target == 96
        assert exported["counters"] == {
            "sweep.points": reference_space.num_points,
            "sweep.prune_inputs": undominated,
            "sweep.meeting_target": 96,
            "sweep.blocks": reference_space.num_points,
            "sweep.blocks_summed": reference_space.num_points,
        }
        assert exported["gauges"] == {
            "sweep.peak_candidates": result.metrics.peak_candidates,
            "sweep.points_per_sec": result.metrics.points_per_second,
            "prune.survivors": len(result.candidates),
            "sweep.stacks_priced": 4,
        }
        assert list(exported["histograms"]) == ["sweep.chunk_seconds"]
        chunks = exported["histograms"]["sweep.chunk_seconds"]
        assert len(chunks) == result.metrics.num_chunks
        assert max(chunks) == result.metrics.max_chunk_seconds


class TestEdgeCases:
    def test_single_point_space(self, model):
        space = DesignSpace.from_mapping({EventType.L1D: [4]})
        result = sweep_space(model, space, chunk_size=100)
        assert result.num_points == 1
        assert len(result.candidates) == 1
        assert result.candidates[0].predicted_cpi == pytest.approx(
            model.predict_cpi(space.base.with_overrides({EventType.L1D: 4}))
        )

    def test_axisless_space_prices_the_base_point(self, model):
        space = DesignSpace.from_mapping({})
        result = sweep_space(model, space)
        assert result.num_points == 1
        assert result.candidates[0].latency == space.base

    def test_empty_chunk_is_priced_as_empty(self, model):
        space = DesignSpace.from_mapping({EventType.L1D: [1, 2]})
        thetas = space.theta_matrix(1, 1)
        assert thetas.shape == (NUM_EVENTS, 0)
        assert model.predict_cycles_matrix(thetas).shape == (0,)

    def test_unreachable_target_keeps_nothing(self, model, reference_space):
        result = sweep_space(model, reference_space, target_cpi=1e-9)
        assert result.candidates == []
        assert result.num_meeting_target == 0
        assert result.pareto_front() == []

    def test_predictor_without_the_matrix_kernel_is_rejected(
        self, reference_space
    ):
        class Scalar:
            def predict_cpi(self, latency):
                return latency[EventType.L1D] / 4.0

        with pytest.raises(TypeError, match="Explorer.explore"):
            sweep_space(Scalar(), reference_space)

    def test_bad_arguments_rejected(self, model, reference_space):
        with pytest.raises(ValueError, match="chunk_size"):
            sweep_space(model, reference_space, chunk_size=0)
        with pytest.raises(ValueError, match="top_k"):
            sweep_space(model, reference_space, top_k=0)

    def test_prune_keeps_front_reachable_points_only(self):
        indices = np.arange(4, dtype=np.int64)
        cpis = np.array([1.0, 0.8, 0.9, 0.5])
        costs = np.array([0.0, 1.0, 2.0, 3.0])
        kept, kept_cpis, _costs = _prune(indices, cpis, costs)
        assert list(kept) == [0, 1, 3]
        assert list(kept_cpis) == [1.0, 0.8, 0.5]


class TestChunkedPredictionProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        chunk=st.integers(min_value=1, max_value=40),
    )
    def test_chunked_matrix_matches_per_point(self, model, data, chunk):
        """predict_cycles_matrix over arbitrary chunkings is exactly the
        per-point predict_cycles."""
        axes = {
            EventType.L1D: data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=8),
                    min_size=1, max_size=4, unique=True,
                )
            ),
            EventType.MEM_D: data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=200),
                    min_size=1, max_size=4, unique=True,
                )
            ),
        }
        space = DesignSpace.from_mapping(axes)
        points = space.points()
        chunked = np.concatenate(
            [
                model.predict_cycles_matrix(space.theta_matrix(
                    lo, min(lo + chunk, space.num_points)
                ))
                for lo in range(0, space.num_points, chunk)
            ]
        )
        singles = np.array([model.predict_cycles(p) for p in points])
        assert np.array_equal(chunked, singles)


#: The e2e ladder's first six axes (20,736 points).
LADDER_6 = {
    EventType.L1D: [1, 2, 3, 4],
    EventType.FP_ADD: [1, 2, 3, 4, 5, 6],
    EventType.MEM_D: [17, 33, 50, 66, 83, 100],
    EventType.L2D: [2, 4, 6, 8, 10, 12],
    EventType.FP_MUL: [1, 2, 3, 4, 5, 6],
    EventType.LD: [1, 2, 3, 4],
}

#: Zero-cycle values beside values above the baseline latencies.
ZERO_TO_DOUBLE = {
    EventType.L1D: [0, 1, 2, 8],
    EventType.FP_ADD: [0, 1, 3, 12],
    EventType.MEM_D: [0, 17, 66, 266],
    EventType.L2D: [0, 2, 6, 24],
}

PROPERTY_EVENTS = [EventType.BASE, EventType.L1D, EventType.FP_ADD,
                   EventType.MEM_D]


@pytest.fixture(scope="module", params=["gcc", "namd"])
def real_session(request):
    return analyze(make_workload(request.param, 1000))


class TestRestriction:
    """The sweep prices RpStacksModel.restricted to the space's box;
    inside the box it must price exactly like the full model."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_restricted_model_prices_every_point_exactly(self, data):
        rows = st.lists(st.integers(0, 9), min_size=4, max_size=4)
        segments = []
        for _ in range(data.draw(st.integers(1, 4))):
            units = data.draw(st.lists(rows, min_size=1, max_size=6))
            segment = np.zeros((len(units), NUM_EVENTS))
            segment[:, PROPERTY_EVENTS] = units
            segments.append(segment)
        full = RpStacksModel(segments, baseline=LatencyConfig(), num_uops=1)
        swept = data.draw(
            st.lists(
                st.sampled_from(PROPERTY_EVENTS[1:]),
                min_size=1, max_size=3, unique=True,
            )
        )
        space = DesignSpace.from_mapping({
            event: data.draw(
                st.lists(st.integers(0, 12), min_size=1, max_size=4)
            )
            for event in swept
        })
        restricted = full.restricted(*space.bounds())
        thetas = space.theta_matrix()
        assert np.array_equal(
            restricted.predict_cycles_matrix(thetas),
            full.predict_cycles_matrix(thetas),
        )
        assert restricted.num_paths <= full.num_paths

    def test_winners_switching_inside_the_box_keep_every_stack(
        self, model, reference_space
    ):
        restricted = model.restricted(*reference_space.bounds())
        assert restricted.num_paths == model.num_paths == 4

    def test_stacks_winning_everywhere_collapse_to_one_row(self, model):
        space = DesignSpace.from_mapping({EventType.L1D: [1, 2]})
        restricted = model.restricted(*space.bounds())
        assert restricted.num_segments == 1
        assert np.array_equal(
            restricted.segment_stacks[0],
            [vec(FP_ADD=4, BASE=16, MEM_D=1)],
        )
        assert restricted.num_uops == model.num_uops
        assert restricted.baseline == model.baseline

    def test_identical_rows_keep_one(self):
        row = vec(L1D=3, BASE=5)
        full = RpStacksModel(
            [np.stack([row, row])], baseline=LatencyConfig(), num_uops=10
        )
        space = DesignSpace.from_mapping({EventType.L1D: [1, 4]})
        restricted = full.restricted(*space.bounds())
        assert np.array_equal(restricted.segment_stacks[0], [row])

    def test_axisless_space_gives_one_row(self, model):
        space = DesignSpace.from_mapping({})
        restricted = model.restricted(*space.bounds())
        assert restricted.num_paths == 1
        assert restricted.predict_cycles(space.base) == model.predict_cycles(
            space.base
        )

    def test_bad_box_rejected(self, model):
        lo, hi = DesignSpace.from_mapping({EventType.L1D: [1, 4]}).bounds()
        with pytest.raises(ValueError, match="lo <= hi"):
            model.restricted(hi, lo)
        with pytest.raises(ValueError, match="NUM_EVENTS"):
            model.restricted(lo[:3], hi[:3])

    @pytest.mark.parametrize(
        "axes", [LADDER_6, ZERO_TO_DOUBLE], ids=["ladder", "zero-to-double"]
    )
    def test_real_models_keep_winner_switches_and_exact_fronts(
        self, real_session, axes
    ):
        full = real_session.rpstacks
        space = DesignSpace.from_mapping(
            axes, base=real_session.config.latency
        )
        restricted = full.restricted(*space.bounds())
        assert restricted.num_paths < full.num_paths
        assert max(s.shape[0] for s in restricted.segment_stacks) > 1
        thetas = space.theta_matrix()
        assert np.array_equal(
            restricted.predict_cycles_matrix(thetas),
            full.predict_cycles_matrix(thetas),
        )
        assert front_key(sweep_space(full, space)) == front_key(
            Explorer(full).explore(space)
        )

    @pytest.mark.parametrize("runs", [1, 2])
    def test_restriction_is_traced_and_gauged(self, model, runs):
        """Every sweep on a shared observer restricts once, under its own
        run span; the gauge holds the latest figure, not a sum."""
        obs = Observer(enabled=True, progress_stream=None)
        space = DesignSpace.from_mapping({EventType.L1D: [1, 2]})
        for _ in range(runs):
            sweep_space(model, space, chunk_size=1, obs=obs)
        spans = obs.tracer.spans
        restricts = [span for span in spans if span.name == "sweep.restrict"]
        run_spans = [span for span in spans if span.name == "sweep.run"]
        assert len(restricts) == len(run_spans) == runs
        for restrict, run in zip(restricts, run_spans):
            assert restrict.parent_id == run.span_id
            assert restrict.attrs == {"stacks": 4, "stacks_priced": 1}
        assert obs.metrics.gauge_value("sweep.stacks_priced") == 1
