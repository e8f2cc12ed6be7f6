"""Dependence-graph export to Graphviz DOT.

For *looking* at the graphs: a µop window is exported with pipeline
stages as rows, instructions as columns (Fig 4a's layout), edge labels
carrying their event charges, and the critical path highlighted.  The
full graph of a real run is far too large to draw, so exports are
windowed by µop range.
"""

from __future__ import annotations

from itertools import groupby
from typing import Optional, Set

import numpy as np

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

    # The window's edges: both endpoints inside it.  Node ids order by
    # µop, then stage, so the sorted used nodes fall into µop columns.
    src_seq = node_seq(graph.edge_src)
    dst_seq = node_seq(graph.edge_dst)
    window = np.flatnonzero(
        (src_seq >= first) & (src_seq < last)
        & (dst_seq >= first) & (dst_seq < last)
    )
    used_nodes = np.unique(
        np.concatenate((graph.edge_src[window], graph.edge_dst[window]))
    ).tolist()
    for seq, members in groupby(used_nodes, key=node_seq):
        lines.append(f"  subgraph cluster_{seq} {{")
        lines.append(f'    label="uop {seq}"; fontsize=10; color=gray;')
        for node in members:
            lines.append(f'    n{node} [label="{node_stage(node).name}"];')
        lines.append("  }")

    weights = graph.edge_weights(latency)
    for e, s, d, events, units, weight in zip(
        window.tolist(),
        graph.edge_src[window].tolist(),
        graph.edge_dst[window].tolist(),
        graph.events[window].tolist(),
        graph.units[window].tolist(),
        weights[window].tolist(),
    ):
        label = _charge_label(events, units)
        attributes = []
        if label:
            attributes.append(f'label="{label} ({weight:g})"')
        if e in critical_edges:
            attributes.append('color=red, penwidth=2.0')
        suffix = f" [{', '.join(attributes)}]" if attributes else ""
        lines.append(f"  n{s} -> n{d}{suffix};")

    lines.append("}")
    return "\n".join(lines)
