"""RpStacks generation invariants.

These pin the soundness arguments of DESIGN.md §5:

1. with a single segment, the prediction at the *baseline* configuration
   equals the exact graph critical-path length (the baseline-maximum
   stack survives every reduction rule);
2. with a single segment, the prediction at *any* configuration never
   exceeds the exact longest path (reduction only discards paths);
3. per-segment predictions equal each segment subgraph's critical path
   at baseline, and the segmented total is >= the unsegmented exact
   critical path (the paper's A-A'/B'-B over-approximation).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import baseline_config
from repro.common.events import LATENCY_DOMAIN, EventType
from repro.core import native
from repro.core.generator import RpStacksGenerator, generate_rpstacks
from repro.core.native import load_native
from repro.core.reduction import ReductionPolicy
from repro.graphmodel.builder import build_graph
from repro.obs.observer import Observer, use_observer
from repro.simulator.core import simulate
from repro.workloads.suite import make_workload

UNSEGMENTED = 10 ** 9


@pytest.fixture(scope="module")
def small_case():
    workload = make_workload("gamess", 120)
    result = simulate(workload, baseline_config())
    graph = build_graph(result)
    return result, graph


class TestBaselineExactness:
    def test_unsegmented_baseline_equals_critical_path(self, small_case):
        result, graph = small_case
        base = result.config.latency
        model = generate_rpstacks(graph, base, segment_length=UNSEGMENTED)
        assert model.predict_cycles(base) == pytest.approx(
            graph.longest_path_length(base)
        )

    def test_exactness_holds_for_any_policy(self, small_case):
        result, graph = small_case
        base = result.config.latency
        for threshold in (0.3, 0.7, 0.95):
            for max_paths in (2, 8):
                model = RpStacksGenerator(
                    graph,
                    base,
                    policy=ReductionPolicy(
                        similarity_threshold=threshold, max_paths=max_paths
                    ),
                    segment_length=UNSEGMENTED,
                ).generate()
                assert model.predict_cycles(base) == pytest.approx(
                    graph.longest_path_length(base)
                ), (threshold, max_paths)


class TestLowerBound:
    @given(
        overrides=st.dictionaries(
            st.sampled_from(list(LATENCY_DOMAIN)),
            st.integers(min_value=1, max_value=150),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_prediction_never_exceeds_exact_longest_path(
        self, small_case, overrides
    ):
        result, graph = small_case
        base = result.config.latency
        model = generate_rpstacks(graph, base, segment_length=UNSEGMENTED)
        latency = base.with_overrides(overrides)
        assert (
            model.predict_cycles(latency)
            <= graph.longest_path_length(latency) + 1e-6
        )


class TestSegmentation:
    def test_segmented_total_bounds_unsegmented_at_baseline(self, small_case):
        result, graph = small_case
        base = result.config.latency
        exact = graph.longest_path_length(base)
        for segment_length in (16, 48, 96):
            model = generate_rpstacks(
                graph, base, segment_length=segment_length
            )
            assert model.predict_cycles(base) >= exact - 1e-6, segment_length

    def test_segment_count(self, small_case):
        result, graph = small_case
        model = generate_rpstacks(
            graph, result.config.latency, segment_length=50
        )
        expected = (graph.num_uops + 49) // 50
        assert model.num_segments == expected

    def test_single_uop_segments_still_work(self, small_case):
        result, graph = small_case
        model = generate_rpstacks(
            graph, result.config.latency, segment_length=1
        )
        assert model.num_segments == graph.num_uops
        assert model.predict_cycles(result.config.latency) > 0

    def test_invalid_segment_length_rejected(self, small_case):
        result, graph = small_case
        with pytest.raises(ValueError):
            RpStacksGenerator(
                graph, result.config.latency, segment_length=0
            )


class TestDiversity:
    def test_multiple_paths_survive_on_mixed_workload(self, small_case):
        result, graph = small_case
        model = generate_rpstacks(
            graph, result.config.latency, segment_length=UNSEGMENTED
        )
        assert model.num_paths > 1

    def test_uniqueness_preserves_event_dimension_coverage(self, small_case):
        """With preservation on, the model must keep a witness stack for
        every event the exact critical path can be driven onto; turning
        it off may lose dimensions (Fig 14's accuracy collapse)."""
        import numpy as np

        result, graph = small_case
        base = result.config.latency
        with_unique = generate_rpstacks(
            graph, base, segment_length=UNSEGMENTED, preserve_unique=True
        )
        without_unique = generate_rpstacks(
            graph, base, segment_length=UNSEGMENTED, preserve_unique=False
        )
        dims_on = (
            np.vstack(with_unique.segment_stacks) > 0
        ).any(axis=0)
        dims_off = (
            np.vstack(without_unique.segment_stacks) > 0
        ).any(axis=0)
        # Preservation never covers fewer dimensions than disabling it.
        assert (dims_on | dims_off == dims_on).all()

    def test_stats_are_collected(self, small_case):
        result, graph = small_case
        model = generate_rpstacks(graph, result.config.latency)
        assert model.stats.nodes_visited == graph.num_nodes
        assert model.stats.reductions > 0
        assert model.stats.analysis_seconds > 0


class TestObservability:
    @pytest.mark.parametrize("gate", ["auto", "0"])
    def test_generate_span_names_the_reducer(
        self, small_case, monkeypatch, gate
    ):
        result, graph = small_case
        monkeypatch.setenv("REPRO_NATIVE", gate)
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            generate_rpstacks(graph, result.config.latency)
        (span,) = [s for s in obs.tracer.spans if s.name == "stacks.generate"]
        assert span.attrs["native"] is (load_native() is not None)
        if gate == "0":
            assert span.attrs["native"] is False

    @pytest.mark.parametrize("gate", ["auto", "0"])
    def test_generate_span_counts_the_walk_threads(
        self, small_case, monkeypatch, gate
    ):
        """Threads walk segments only with the kernel loaded, and every
        segment is walked exactly once either way."""
        result, graph = small_case
        monkeypatch.setenv("REPRO_NATIVE", gate)
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            model = generate_rpstacks(
                graph, result.config.latency, segment_length=32, jobs=2
            )
        assert model.num_segments > 2
        (span,) = [s for s in obs.tracer.spans if s.name == "stacks.generate"]
        threads = 2 if load_native() is not None else 1
        assert span.attrs["threads"] == threads
        if gate == "0":
            assert span.attrs["threads"] == 1
        walked = [
            s.attrs["segment"]
            for s in obs.tracer.spans
            if s.name == "stacks.segment"
        ]
        assert sorted(walked) == list(range(model.num_segments))


    @pytest.mark.parametrize("gate", ["auto", "0"])
    def test_segment_spans_count_the_reduction_work(
        self, small_case, monkeypatch, gate
    ):
        """The compiled walk's cover tests and similarity evaluations
        are the same at ``jobs=1`` and ``jobs=2``, and the counters sum
        the spans; the spec walk records neither."""
        result, graph = small_case
        monkeypatch.setenv("REPRO_NATIVE", gate)
        names = ("cover_tests", "similarity_evals")

        def work(jobs):
            obs = Observer(enabled=True, progress_stream=None)
            with use_observer(obs):
                generate_rpstacks(
                    graph, result.config.latency, segment_length=32,
                    jobs=jobs,
                )
            spans = sorted(
                (s for s in obs.tracer.spans if s.name == "stacks.segment"),
                key=lambda s: s.attrs["segment"],
            )
            counters = obs.metrics.snapshot()["counters"]
            return (
                [[s.attrs.get(name) for name in names] for s in spans],
                [counters.get(f"stacks.{name}") for name in names],
            )

        serial = work(1)
        assert work(2) == serial
        per_span, totals = serial
        if load_native() is None:
            assert per_span == [[None, None]] * len(per_span)
            assert totals == [None, None]
            return
        assert totals == [sum(column) for column in zip(*per_span)]
        assert min(totals) > 0


    @pytest.mark.parametrize(
        "gate,load_failed,fallbacks",
        [("auto", True, 2), ("0", True, None), ("auto", False, None)],
        ids=["failed-load", "asked-for-spec", "loaded"],
    )
    def test_only_a_failed_kernel_load_counts_a_fallback(
        self, small_case, monkeypatch, gate, load_failed, fallbacks
    ):
        """Each generation that runs the spec walk because the compiled
        walk failed to load in auto mode counts one
        ``stacks.native_fallbacks``; one under ``REPRO_NATIVE=0``, where
        the spec walk was asked for, counts none, and so does one on the
        loaded kernel."""
        result, graph = small_case
        monkeypatch.setenv("REPRO_NATIVE", gate)
        if load_failed:
            # How load_gated remembers a failed best-effort load.
            monkeypatch.setitem(native._LOADED, "reducer", None)
        elif load_native() is None:
            pytest.skip("no C toolchain available in this environment")
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            for _ in range(2):
                generate_rpstacks(graph, result.config.latency)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("stacks.native_fallbacks") == fallbacks
        spans = [s for s in obs.tracer.spans if s.name == "stacks.generate"]
        assert [s.attrs["native"] for s in spans] == [not load_failed] * 2


class TestThreadedWalk:
    def test_more_threads_than_cores_lose_nothing(self, small_case):
        """Eight threads over short segments, switching as often as the
        interpreter allows: the model equals the serial one, and every
        segment records exactly one span and one timing."""
        result, graph = small_case
        base = result.config.latency
        serial = generate_rpstacks(graph, base, segment_length=4)
        obs = Observer(enabled=True, progress_stream=None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_observer(obs):
                threaded = generate_rpstacks(
                    graph, base, segment_length=4, jobs=8
                )
        finally:
            sys.setswitchinterval(interval)
        assert threaded.content_digest() == serial.content_digest()
        walked = sorted(
            s.attrs["segment"]
            for s in obs.tracer.spans
            if s.name == "stacks.segment"
        )
        assert walked == list(range(serial.num_segments))
        timings = obs.histogram("stacks.segment_seconds")
        assert timings.count == serial.num_segments
