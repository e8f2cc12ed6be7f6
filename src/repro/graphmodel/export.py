"""Dependence-graph export to Graphviz DOT.

For *looking* at the graphs: a µop window is exported with pipeline
stages as rows, instructions as columns (Fig 4a's layout), edge labels
carrying their event charges, and the critical path highlighted.  The
full graph of a real run is far too large to draw, so exports are
windowed by µop range.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.common.config import LatencyConfig
from repro.common.events import event_label
from repro.graphmodel.criticality import CriticalityAnalysis
from repro.graphmodel.graph import DependenceGraph
from repro.graphmodel.nodes import Stage, node_seq, node_stage


def _charge_label(events, units) -> str:
    """``L1D+LD``-style label of one edge's packed charge row."""
    return "+".join(
        (f"{count}x" if count != 1 else "") + event_label(event)
        for event, count in zip(events, units)
        if count
    )


def to_dot(
    graph: DependenceGraph,
    first: int = 0,
    count: int = 8,
    latency: Optional[LatencyConfig] = None,
    highlight_critical: bool = True,
) -> str:
    """Render µops ``[first, first+count)`` as a Graphviz DOT digraph.

    Args:
        graph: the dependence graph.
        first / count: µop window to draw (edges crossing out of the
            window are dropped).
        latency: pricing for edge weights and the critical-path
            highlight; Table II defaults if omitted.
        highlight_critical: colour zero-slack edges red.
    """
    if count < 1:
        raise ValueError("count must be positive")
    latency = latency or LatencyConfig()
    last = min(graph.num_uops, first + count)
    if first >= last:
        raise ValueError("window is outside the graph")

    critical_edges: Set[int] = set()
    if highlight_critical:
        analysis = CriticalityAnalysis(graph, latency)
        critical_edges = {
            edge.edge_index for edge in analysis.critical_edges()
        }

    lines = [
        "digraph dependence {",
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=10, width=0.45, '
        'fontname="Helvetica"];',
        '  edge [fontsize=8, fontname="Helvetica"];',
    ]

    # Nodes, grouped per µop so instructions form columns.
    used_nodes: Set[int] = set()
    for e in range(graph.num_edges):
        s, d = int(graph.edge_src[e]), int(graph.edge_dst[e])
        if (
            first <= node_seq(s) < last
            and first <= node_seq(d) < last
        ):
            used_nodes.add(s)
            used_nodes.add(d)

    for seq in range(first, last):
        members = sorted(
            node for node in used_nodes if node_seq(node) == seq
        )
        if not members:
            continue
        lines.append(f"  subgraph cluster_{seq} {{")
        lines.append(f'    label="uop {seq}"; fontsize=10; color=gray;')
        for node in members:
            stage = node_stage(node)
            lines.append(f'    n{node} [label="{stage.name}"];')
        lines.append("  }")

    weights = graph.edge_weights(latency)
    for e in range(graph.num_edges):
        s, d = int(graph.edge_src[e]), int(graph.edge_dst[e])
        if not (
            first <= node_seq(s) < last
            and first <= node_seq(d) < last
        ):
            continue
        label = _charge_label(
            graph.events[e].tolist(), graph.units[e].tolist()
        )
        attributes = []
        if label:
            attributes.append(f'label="{label} ({weights[e]:g})"')
        if e in critical_edges:
            attributes.append('color=red, penwidth=2.0')
        suffix = f" [{', '.join(attributes)}]" if attributes else ""
        lines.append(f"  n{s} -> n{d}{suffix};")

    lines.append("}")
    return "\n".join(lines)
