"""Dependence-graph container tests on small hand-built graphs."""

import numpy as np
import pytest

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.graphmodel.builder import pack_edges
from repro.graphmodel.graph import (
    MAX_EDGE_EVENTS,
    DependenceGraph,
    GraphBuildError,
)
from repro.graphmodel.nodes import NODES_PER_UOP, Stage, node_id


def diamond_graph():
    """Two µops; two parallel paths from F0 with different charges.

    F0 -> E0 (FP_ADD x2), F0 -> P0 (L1D x1, LD x1), both -> C1 (sink).
    Node ids are arbitrary grid positions; only the edges matter.
    """
    f0 = node_id(0, Stage.F)
    e0 = node_id(0, Stage.E)
    p0 = node_id(0, Stage.P)
    sink = node_id(1, Stage.C)
    src = [f0, f0, e0, p0]
    dst = [e0, p0, sink, sink]
    charges = [
        ((EventType.FP_ADD, 2),),
        ((EventType.L1D, 1), (EventType.LD, 1)),
        (),
        ((EventType.BASE, 1),),
    ]
    return pack_edges(2, src, dst, charges)


class TestLongestPath:
    def test_picks_heavier_branch_at_baseline(self):
        graph = diamond_graph()
        base = LatencyConfig()  # FP_ADD=6 -> 12 vs L1D+LD=6 (+1 base)
        assert graph.longest_path_length(base) == 12.0

    def test_repricing_switches_the_winner(self):
        graph = diamond_graph()
        optimised = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        # FP branch: 2 cycles; memory branch: 4 + 2 + 1(base) = 7.
        assert graph.longest_path_length(optimised) == 7.0

    def test_critical_path_stack_decomposes_length(self):
        graph = diamond_graph()
        base = LatencyConfig()
        length, stack = graph.critical_path(base)
        assert stack @ base.as_vector() == length
        assert stack[EventType.FP_ADD] == 2

    def test_critical_path_stack_follows_the_winner(self):
        graph = diamond_graph()
        optimised = LatencyConfig().with_overrides({EventType.FP_ADD: 1})
        _length, stack = graph.critical_path(optimised)
        assert stack[EventType.L1D] == 1
        assert stack[EventType.FP_ADD] == 0

    def test_node_distances_monotone_along_edges(self):
        graph = diamond_graph()
        dist = graph.node_distances(LatencyConfig())
        weights = graph.edge_weights(LatencyConfig())
        for e in range(graph.num_edges):
            s = int(graph.edge_src[e])
            d = int(graph.edge_dst[e])
            assert dist[d] >= dist[s] + weights[e]


#: Edge arrays naming what the graph does not hold: an event id past
#: ``NUM_EVENTS - 1`` or below 0, a source or a destination outside
#: nodes ``0 .. num_nodes - 1``.
ID_FAULTS = [
    "event-past-end", "event-negative", "source-past-end",
    "source-negative", "destination-past-end", "destination-negative",
]


class TestStructure:
    def test_edge_weights_price_charges(self):
        graph = diamond_graph()
        weights = graph.edge_weights(LatencyConfig())
        total = weights.sum()
        assert total == 12 + 6 + 0 + 1

    def test_topological_order_is_complete_and_valid(self):
        graph = diamond_graph()
        topo = graph.topological_order()
        assert len(topo) == graph.num_nodes
        position = {node: i for i, node in enumerate(topo)}
        for e in range(graph.num_edges):
            assert (
                position[int(graph.edge_src[e])]
                < position[int(graph.edge_dst[e])]
            )

    def test_cycle_detection(self, monkeypatch):
        a, b = node_id(0, Stage.F), node_id(0, Stage.E)
        graph = pack_edges(1, [a, b], [b, a], [(), ()])
        with pytest.raises(GraphBuildError, match="cycle"):
            graph.topological_order()
        # The compiled longest path (when it loads), then the spec relax.
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        for setting in (None, "0"):
            if setting is not None:
                monkeypatch.setenv("REPRO_NATIVE", setting)
            with pytest.raises(GraphBuildError, match="cycle"):
                graph.critical_path(LatencyConfig())
            with pytest.raises(GraphBuildError, match="cycle"):
                graph.longest_path_length(LatencyConfig())

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphBuildError):
            pack_edges(1, [0], [1, 2], [()])

    def test_too_many_event_pairs_rejected(self):
        charge = (
            (EventType.L1D, 1),
            (EventType.L2D, 1),
            (EventType.MEM_D, 1),
            (EventType.DTLB, 1),
        )
        with pytest.raises(GraphBuildError, match="pairs"):
            pack_edges(1, [0], [1], [charge])

    def test_constructor_checks_the_packed_layout(self):
        a, b, c = (node_id(0, s) for s in (Stage.F, Stage.E, Stage.P))
        rows = np.zeros((2, MAX_EDGE_EVENTS), dtype=np.int16)
        DependenceGraph(1, [a, b], [b, c], rows, rows)
        with pytest.raises(GraphBuildError, match="equal length"):
            DependenceGraph(1, [a, b], [b], rows, rows)
        with pytest.raises(GraphBuildError, match="sorted by destination"):
            DependenceGraph(1, [b, a], [c, b], rows, rows)
        with pytest.raises(GraphBuildError, match="shape"):
            DependenceGraph(1, [a, b], [b, c], rows[:, :2], rows[:, :2])
        padded = rows.copy()
        padded[0, 1] = int(EventType.L1D)
        with pytest.raises(GraphBuildError, match="zero-unit slot"):
            DependenceGraph(1, [a, b], [b, c], padded, rows)

    @pytest.mark.parametrize("fault", ID_FAULTS)
    def test_constructor_rejects_ids_outside_the_graph(self, fault):
        """Rejected up front, so no pass reads an edge that one walk or
        longest path would drop and the other fail on."""
        graph = diamond_graph()
        src, dst = graph.edge_src.copy(), graph.edge_dst.copy()
        events, units = graph.events.copy(), graph.units.copy()
        if fault.startswith("event"):
            events[1, 2] = NUM_EVENTS if fault == "event-past-end" else -1
            units[1, 2] = 2
        elif fault == "source-past-end":
            src[1] = graph.num_nodes + 7
        elif fault == "source-negative":
            src[1] = -1
        elif fault == "destination-past-end":
            dst[-1] = graph.num_nodes + 3
        else:
            dst[0] = -1
        with pytest.raises(GraphBuildError, match="outside"):
            DependenceGraph(graph.num_uops, src, dst, events, units)

    def test_sink_is_last_commit_node(self):
        graph = diamond_graph()
        assert graph.sink == node_id(1, Stage.C)
        assert graph.num_nodes == 2 * NODES_PER_UOP
