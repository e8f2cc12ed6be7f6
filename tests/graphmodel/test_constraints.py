"""Table I constraint tests: the builder must emit every edge kind."""

import pytest

from repro.common.config import baseline_config
from repro.common.events import EventType
from repro.graphmodel.builder import build_graph
from repro.graphmodel.nodes import Stage, node_id, node_seq, node_stage
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.simulator.core import simulate
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.suite import make_workload


def edges_of(graph):
    """Set of (src, dst) pairs plus a charge lookup: each edge's
    ``((event, units), ...)`` pairs, read off its packed row."""
    pairs = {}
    events = graph.events.tolist()
    units = graph.units.tolist()
    for e in range(graph.num_edges):
        key = (int(graph.edge_src[e]), int(graph.edge_dst[e]))
        charge = tuple(
            (EventType(event), count)
            for event, count in zip(events[e], units[e])
            if count
        )
        pairs.setdefault(key, []).append(charge)
    return pairs


def has_edge(pairs, i, s1, j, s2):
    return (node_id(i, s1), node_id(j, s2)) in pairs


@pytest.fixture(scope="module")
def mixed_graph(tiny_workload):
    result = simulate(tiny_workload, baseline_config())
    return result, build_graph(result), edges_of(build_graph(result))


class TestFrontEndConstraints:
    def test_in_order_fetch(self, mixed_graph):
        result, graph, pairs = mixed_graph
        for i in range(1, 20):
            assert has_edge(pairs, i - 1, Stage.IC, i, Stage.F)

    def test_finite_fetch_bandwidth(self, mixed_graph):
        result, graph, pairs = mixed_graph
        fbw = result.config.core.fetch_width
        assert has_edge(pairs, 0, Stage.IC, fbw, Stage.F)
        charge = pairs[(node_id(0, Stage.IC), node_id(fbw, Stage.F))]
        assert ((EventType.BASE, 1),) in charge

    def test_finite_fetch_buffer(self, mixed_graph):
        result, graph, pairs = mixed_graph
        fbs = result.config.core.fetch_buffer
        assert has_edge(pairs, 0, Stage.N, fbs, Stage.F)

    def test_control_dependency_on_mispredictions(self, mixed_graph):
        result, graph, pairs = mixed_graph
        mispredicted = [r.seq for r in result.uops if r.mispredicted]
        assert mispredicted, "fixture needs at least one misprediction"
        for seq in mispredicted:
            if seq + 1 >= len(result.uops):
                continue
            key = (node_id(seq, Stage.P), node_id(seq + 1, Stage.F))
            assert key in pairs
            assert ((EventType.BR_MISP, 1),) in pairs[key]

    def test_fetch_pipeline_chain(self, mixed_graph):
        _result, _graph, pairs = mixed_graph
        assert has_edge(pairs, 0, Stage.F, 0, Stage.ITLB)
        assert has_edge(pairs, 0, Stage.ITLB, 0, Stage.IC)

    def test_icache_charge_on_line_openers(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        opener = next(r.seq for r in result.uops if r.fetch_charge)
        key = (node_id(opener, Stage.ITLB), node_id(opener, Stage.IC))
        events = {e for charge in pairs[key] for e, _u in charge}
        assert EventType.L1I in events


class TestMidPipelineConstraints:
    def test_rename_chain(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        core = result.config.core
        assert has_edge(pairs, 0, Stage.IC, 0, Stage.N)
        assert has_edge(pairs, 0, Stage.N, 1, Stage.N)
        assert has_edge(pairs, 0, Stage.N, core.rename_width, Stage.N)

    def test_finite_rob(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        rbs = result.config.core.rob_size
        if len(result.uops) > rbs:
            assert has_edge(pairs, 0, Stage.C, rbs, Stage.N)

    def test_dispatch_chain(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        core = result.config.core
        assert has_edge(pairs, 0, Stage.N, 0, Stage.D)
        assert has_edge(pairs, 0, Stage.D, 1, Stage.D)
        assert has_edge(pairs, 0, Stage.D, core.dispatch_width, Stage.D)

    def test_data_dependency_edges(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        for record in result.uops[:60]:
            for producer in record.data_producers:
                if producer >= 0:
                    assert has_edge(
                        pairs, producer, Stage.P, record.seq, Stage.R
                    )

    def test_execute_chain(self, mixed_graph):
        _result, _graph, pairs = mixed_graph
        assert has_edge(pairs, 0, Stage.D, 0, Stage.R)
        assert has_edge(pairs, 0, Stage.R, 0, Stage.E)
        assert has_edge(pairs, 0, Stage.E, 0, Stage.P)


class TestMemoryConstraints:
    def test_address_path_for_memory_ops(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        loads = [
            u.seq for u in result.workload if u.is_memory
        ]
        assert loads
        for seq in loads[:20]:
            assert has_edge(pairs, seq, Stage.D, seq, Stage.AR1)
            assert has_edge(pairs, seq, Stage.AR1, seq, Stage.AR2)
            assert has_edge(pairs, seq, Stage.AR2, seq, Stage.DTLB)
            assert has_edge(pairs, seq, Stage.DTLB, seq, Stage.R)

    def test_address_producers_feed_ar1(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        for record, uop in zip(result.uops, result.workload):
            if uop.is_memory:
                for producer in record.addr_producers:
                    if producer >= 0:
                        assert has_edge(
                            pairs, producer, Stage.P, record.seq, Stage.AR1
                        )

    def test_load_store_ordering(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        for record, uop in zip(result.uops, result.workload):
            if uop.is_load and record.store_barrier >= 0:
                assert has_edge(
                    pairs, record.store_barrier, Stage.E, record.seq, Stage.E
                )

    def test_agu_charge_on_address_calculation(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        load = next(u.seq for u in result.workload if u.is_load)
        key = (node_id(load, Stage.AR1), node_id(load, Stage.AR2))
        assert ((EventType.LD, 1),) in pairs[key]

    def test_non_memory_ops_have_no_address_path(self, mixed_graph):
        result, graph, pairs = mixed_graph
        alu = next(
            u.seq
            for u in result.workload
            if u.opclass is OpClass.INT_ALU
        )
        assert not has_edge(pairs, alu, Stage.D, alu, Stage.AR1)


class TestCommitConstraints:
    def test_in_order_commit(self, mixed_graph):
        _result, _graph, pairs = mixed_graph
        assert has_edge(pairs, 0, Stage.C, 1, Stage.RC)

    def test_finite_commit_width(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        cbw = result.config.core.commit_width
        assert has_edge(pairs, 0, Stage.C, cbw, Stage.RC)

    def test_uop_dependency_gates_the_som(self, mixed_graph):
        result, _graph, pairs = mixed_graph
        for uop in result.workload:
            if uop.som and not uop.eom:
                # multi-µop macro: every member's P gates the SoM's RC
                member = uop.seq
                while (
                    member < len(result.workload)
                    and result.workload[member].macro_id == uop.macro_id
                ):
                    assert has_edge(
                        pairs, member, Stage.P, uop.seq, Stage.RC
                    )
                    member += 1

    def test_commit_latency_edge(self, mixed_graph):
        _result, _graph, pairs = mixed_graph
        assert has_edge(pairs, 0, Stage.RC, 0, Stage.C)


class TestGraphVsSimulator:
    def test_baseline_error_is_small(self, mixed_graph):
        result, graph, _pairs = mixed_graph
        predicted = graph.longest_path_length(result.config.latency)
        error = abs(predicted - result.cycles) / result.cycles
        assert error < 0.05

    def test_graph_never_wildly_overshoots(self, mixed_graph):
        result, graph, _pairs = mixed_graph
        predicted = graph.longest_path_length(result.config.latency)
        assert predicted <= result.cycles * 1.05

    def test_node_helpers_round_trip(self):
        node = node_id(17, Stage.DTLB)
        assert node_seq(node) == 17
        assert node_stage(node) is Stage.DTLB
