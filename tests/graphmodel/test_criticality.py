"""Criticality / slack / interaction-cost tests."""

import numpy as np
import pytest

from repro.common.config import LatencyConfig, baseline_config
from repro.common.events import EventType
from repro.graphmodel.builder import build_graph
from repro.graphmodel.criticality import (
    CriticalityAnalysis,
    interaction_cost,
    interaction_matrix,
)
from repro.graphmodel.builder import pack_edges
from repro.graphmodel.nodes import Stage, node_id


def diamond_graph():
    """F0 -> {E0 (FP_ADD x2) | P0 (L1D x1)} -> C1."""
    f0 = node_id(0, Stage.F)
    e0 = node_id(0, Stage.E)
    p0 = node_id(0, Stage.P)
    sink = node_id(1, Stage.C)
    return pack_edges(
        2,
        [f0, f0, e0, p0],
        [e0, p0, sink, sink],
        [
            ((EventType.FP_ADD, 2),),
            ((EventType.L1D, 1),),
            (),
            (),
        ],
    )


class TestSlack:
    def test_critical_branch_has_zero_slack(self):
        graph = diamond_graph()
        analysis = CriticalityAnalysis(graph, LatencyConfig())
        # FP branch: 12 cycles; memory branch: 4 cycles.
        assert analysis.length == 12.0
        slacks = [analysis.edge_slack(e) for e in range(graph.num_edges)]
        # Edge order after dst-sorting: (f0->e0), (f0->p0), then sinks.
        fp_edges = [
            e
            for e in range(graph.num_edges)
            if graph.units[e, 0] and graph.events[e, 0] == EventType.FP_ADD
        ]
        mem_edges = [
            e
            for e in range(graph.num_edges)
            if graph.units[e, 0] and graph.events[e, 0] == EventType.L1D
        ]
        assert analysis.edge_slack(fp_edges[0]) == 0.0
        assert analysis.edge_slack(mem_edges[0]) == 8.0

    def test_slack_predicts_tolerable_growth(self):
        graph = diamond_graph()
        base = LatencyConfig()
        analysis = CriticalityAnalysis(graph, base)
        # Growing L1D by its slack (8 cycles / 1 unit) leaves the length
        # unchanged; growing it beyond increases it.
        same = base.with_overrides({EventType.L1D: 12})
        assert graph.longest_path_length(same) == analysis.length
        longer = base.with_overrides({EventType.L1D: 13})
        assert graph.longest_path_length(longer) > analysis.length

    def test_critical_nodes(self):
        graph = diamond_graph()
        analysis = CriticalityAnalysis(graph, LatencyConfig())
        assert analysis.node_is_critical(node_id(0, Stage.F))
        assert analysis.node_is_critical(node_id(0, Stage.E))
        assert not analysis.node_is_critical(node_id(0, Stage.P))

    def test_criticality_switches_with_pricing(self):
        graph = diamond_graph()
        optimised = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        analysis = CriticalityAnalysis(graph, optimised)
        assert analysis.node_is_critical(node_id(0, Stage.P))
        assert not analysis.node_is_critical(node_id(0, Stage.E))


class TestOnRealGraph:
    @pytest.fixture(scope="class")
    def real(self, tiny_result):
        graph = build_graph(tiny_result)
        return graph, CriticalityAnalysis(
            graph, tiny_result.config.latency
        )

    def test_length_matches_longest_path(self, real, tiny_result):
        graph, analysis = real
        assert analysis.length == graph.longest_path_length(
            tiny_result.config.latency
        )

    def test_critical_edges_form_nonempty_set(self, real):
        _graph, analysis = real
        critical = analysis.critical_edges()
        assert critical
        assert all(edge.is_critical for edge in critical)

    def test_all_edge_slacks_nonnegative(self, real):
        graph, analysis = real
        for e in range(0, graph.num_edges, 7):  # sample for speed
            assert analysis.edge_slack(e) >= 0.0

    def test_criticality_fraction_in_unit_interval(self, real):
        _graph, analysis = real
        fraction = analysis.criticality_fraction()
        assert 0.0 < fraction <= 1.0


class TestInteractionCost:
    def test_parallel_events_interact_negatively(self):
        # In the diamond, FP (12) hides memory (4): optimising FP alone
        # is worth less than its isolated cost because memory emerges.
        graph = diamond_graph()
        base = LatencyConfig()
        cost = interaction_cost(
            graph, base, {EventType.FP_ADD: 1}, {EventType.L1D: 1}
        )
        assert cost < 0

    def test_serial_independent_events_have_zero_cost(self):
        # Two events on the same serial chain: lengths add, so the
        # combined saving is exactly the sum of the individual savings.
        a = node_id(0, Stage.F)
        b = node_id(0, Stage.E)
        c = node_id(1, Stage.C)
        graph = pack_edges(
            2,
            [a, b],
            [b, c],
            [((EventType.FP_ADD, 1),), ((EventType.L1D, 1),)],
        )
        cost = interaction_cost(
            graph,
            LatencyConfig(),
            {EventType.FP_ADD: 1},
            {EventType.L1D: 1},
        )
        assert cost == 0.0

    def test_overlapping_overrides_rejected(self):
        graph = diamond_graph()
        with pytest.raises(ValueError, match="disjoint"):
            interaction_cost(
                graph,
                LatencyConfig(),
                {EventType.FP_ADD: 1},
                {EventType.FP_ADD: 2},
            )

    def test_matrix_is_symmetric_with_zero_diagonal(self, tiny_result):
        graph = build_graph(tiny_result)
        optimisations = [
            (EventType.L1D, 1),
            (EventType.FP_ADD, 1),
            (EventType.LD, 1),
        ]
        matrix = interaction_matrix(
            graph, tiny_result.config.latency, optimisations
        )
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matrix_entries_match_pairwise_calls(self, tiny_result):
        graph = build_graph(tiny_result)
        base = tiny_result.config.latency
        optimisations = [(EventType.L1D, 1), (EventType.FP_ADD, 1)]
        matrix = interaction_matrix(graph, base, optimisations)
        direct = interaction_cost(
            graph, base, {EventType.L1D: 1}, {EventType.FP_ADD: 1}
        )
        assert matrix[0, 1] == direct


class TestOpclassHistogram:
    def test_serial_fp_chain_is_fp_critical(self):
        from repro.common.config import baseline_config
        from repro.simulator.core import simulate
        from repro.workloads.kernels import serial_chain
        from repro.isa.uop import OpClass

        result = simulate(serial_chain(OpClass.FP_ADD, 60), baseline_config())
        graph = build_graph(result)
        analysis = CriticalityAnalysis(graph, result.config.latency)
        histogram = analysis.critical_opclass_histogram(result.workload)
        assert set(histogram) == {"FP_ADD"}
        assert histogram["FP_ADD"] >= 55  # nearly every link is critical

    def test_histogram_counts_match_critical_uops(self, tiny_result):
        graph = build_graph(tiny_result)
        analysis = CriticalityAnalysis(graph, tiny_result.config.latency)
        histogram = analysis.critical_opclass_histogram(
            tiny_result.workload
        )
        assert sum(histogram.values()) == len(analysis.critical_uops())
