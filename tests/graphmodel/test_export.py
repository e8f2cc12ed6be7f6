"""DOT export tests."""

import pytest

from repro.common.config import baseline_config
from repro.common.events import EventType
from repro.graphmodel.builder import build_graph, pack_edges
from repro.graphmodel.export import to_dot
from repro.graphmodel.nodes import Stage, node_id
from repro.simulator.core import simulate
from repro.workloads.kernels import serial_chain


@pytest.fixture(scope="module")
def graph():
    return build_graph(
        simulate(serial_chain(length=12), baseline_config())
    )


def test_dot_structure(graph):
    dot = to_dot(graph, first=0, count=4)
    assert dot.startswith("digraph dependence {")
    assert dot.rstrip().endswith("}")
    assert "rankdir=LR" in dot


def test_one_cluster_per_uop(graph):
    dot = to_dot(graph, first=0, count=4)
    assert dot.count("subgraph cluster_") == 4


def test_edges_within_window_only(graph):
    dot = to_dot(graph, first=2, count=3)
    for line in dot.splitlines():
        if "->" in line:
            src = int(line.split("->")[0].strip().lstrip("n"))
            assert 2 * 13 <= src < 5 * 13  # NODES_PER_UOP == 13


def test_event_labels_present(graph):
    dot = to_dot(graph, first=0, count=6)
    assert "Fadd" in dot  # the chain's execution edges


def test_label_format():
    f0, e0, p0 = (node_id(0, stage) for stage in (Stage.F, Stage.E, Stage.P))
    sink = node_id(1, Stage.C)
    graph = pack_edges(
        2,
        [f0, f0, e0],
        [e0, p0, sink],
        [
            ((EventType.FP_ADD, 2),),
            ((EventType.L1D, 1), (EventType.LD, 1)),
            (),
        ],
    )
    edges = {
        line.strip()
        for line in to_dot(graph, count=2, highlight_critical=False)
        .splitlines()
        if "->" in line
    }
    assert edges == {
        f'n{f0} -> n{e0} [label="2xFadd (12)"];',
        f'n{f0} -> n{p0} [label="L1D+LD (6)"];',
        f"n{e0} -> n{sink};",
    }


def test_critical_path_highlighted(graph):
    dot = to_dot(graph, first=0, count=6, highlight_critical=True)
    assert "color=red" in dot
    plain = to_dot(graph, first=0, count=6, highlight_critical=False)
    assert "color=red" not in plain


def test_window_validation(graph):
    with pytest.raises(ValueError):
        to_dot(graph, first=10 ** 6, count=4)
    with pytest.raises(ValueError):
        to_dot(graph, count=0)
