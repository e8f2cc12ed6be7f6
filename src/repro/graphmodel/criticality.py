"""Criticality, slack and interaction-cost analysis on dependence graphs.

The paper's critical-path lineage (Fields et al. [10-12], Tune et
al. [16]) defines three quantities this module computes, all from the
same forward/backward longest-path pass:

* **criticality** — a node/edge lies on a critical path iff its forward
  distance plus its backward distance equals the graph's length;
* **slack** — how many cycles an edge's weight can grow before it
  changes total execution time (Fields [10]'s "slack");
* **interaction cost** (Fields [12]) — for two events A and B,
  ``icost(A,B) = T(A and B optimised) - T(A optimised) - T(B optimised)
  + T(baseline)``: zero for independent events, negative for parallel
  (overlapping) events, positive for serial ones.  The paper's Figure 1a
  "hidden penalty" example is exactly a negative interaction cost.

These are per-design-point analyses (each evaluation is a longest-path
pass), which is the very overhead RpStacks amortises away — they are
provided as the companion toolkit an architect uses to *understand* a
chosen design, not to sweep the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import EventType
from repro.graphmodel.graph import DependenceGraph
from repro.graphmodel.nodes import Stage, node_seq, node_stage


@dataclass(frozen=True)
class EdgeSlack:
    """Slack of one edge under one latency configuration."""

    edge_index: int
    src: int
    dst: int
    slack: float

    @property
    def is_critical(self) -> bool:
        return self.slack == 0.0


class CriticalityAnalysis:
    """Forward/backward longest-path analysis of one priced graph.

    Args:
        graph: the dependence graph.
        latency: the design point to price it at.
    """

    def __init__(
        self, graph: DependenceGraph, latency: LatencyConfig
    ) -> None:
        self.graph = graph
        self.latency = latency
        self._weights = graph.edge_weights(latency).tolist()
        self._forward = graph.node_distances(latency)
        self._backward = self._relax_backward()
        self.length = self._forward[graph.sink]

    def _relax_backward(self) -> List[float]:
        """Longest distance from each node to the sink."""
        graph = self.graph
        src = graph.edge_src.tolist()
        dst = graph.edge_dst.tolist()
        indptr = graph.in_indptr.tolist()
        weights = self._weights
        back = [float("-inf")] * graph.num_nodes
        back[graph.sink] = 0.0
        for v in reversed(graph.topological_order()):
            base = back[v]
            if base == float("-inf"):
                continue
            for e in range(indptr[v], indptr[v + 1]):
                cand = base + weights[e]
                s = src[e]
                if cand > back[s]:
                    back[s] = cand
        # Nodes that cannot reach the sink (none, structurally) keep -inf;
        # normalise to 0-slack-free values for robustness.
        return back

    # ------------------------------------------------------------------

    def node_is_critical(self, node: int) -> bool:
        """True iff *node* lies on some critical (longest) path."""
        back = self._backward[node]
        if back == float("-inf"):
            return False
        return self._forward[node] + back == self.length

    def edge_slack(self, edge_index: int) -> float:
        """Cycles edge *edge_index* can grow before the length changes."""
        graph = self.graph
        s = int(graph.edge_src[edge_index])
        d = int(graph.edge_dst[edge_index])
        back = self._backward[d]
        if back == float("-inf"):
            return float("inf")
        used = self._forward[s] + self._weights[edge_index] + back
        return self.length - used

    def critical_edges(self) -> List[EdgeSlack]:
        """All zero-slack edges (the critical sub-graph)."""
        result = []
        for e in range(self.graph.num_edges):
            slack = self.edge_slack(e)
            if slack == 0.0:
                result.append(
                    EdgeSlack(
                        edge_index=e,
                        src=int(self.graph.edge_src[e]),
                        dst=int(self.graph.edge_dst[e]),
                        slack=0.0,
                    )
                )
        return result

    def critical_uops(self) -> List[int]:
        """µops with at least one critical execution (E or P) node."""
        critical = []
        for seq in range(self.graph.num_uops):
            e_node = seq * len(Stage) + Stage.E
            p_node = seq * len(Stage) + Stage.P
            if self.node_is_critical(e_node) or self.node_is_critical(
                p_node
            ):
                critical.append(seq)
        return critical

    def criticality_fraction(self) -> float:
        """Fraction of µops that touch a critical path — a workload's
        "criticality density" (Tune et al.)."""
        return len(self.critical_uops()) / max(1, self.graph.num_uops)

    def critical_opclass_histogram(self, workload) -> Dict[str, int]:
        """Critical-µop counts per op class (Tune et al.'s criticality
        breakdown): which *kinds* of instructions the design point's
        performance actually hangs on."""
        histogram: Dict[str, int] = {}
        for seq in self.critical_uops():
            name = workload[seq].opclass.name
            histogram[name] = histogram.get(name, 0) + 1
        return histogram


def interaction_cost(
    graph: DependenceGraph,
    base: LatencyConfig,
    first: Mapping[EventType, int],
    second: Mapping[EventType, int],
) -> float:
    """Fields et al.'s interaction cost of two latency optimisations.

    Args:
        graph: the baseline dependence graph.
        base: the baseline latency configuration.
        first / second: two (disjoint) sets of latency overrides.

    Returns:
        ``T(both) - T(first) - T(second) + T(base)`` in cycles: ~0 for
        independent optimisations, negative when the events overlap in
        parallel (optimising one hides the other), positive when they
        are serial (optimising both compounds).
    """
    overlap = set(first) & set(second)
    if overlap:
        raise ValueError(
            f"overrides must be disjoint, both set {sorted(overlap)}"
        )
    t_base = graph.longest_path_length(base)
    t_first = graph.longest_path_length(base.with_overrides(first))
    t_second = graph.longest_path_length(base.with_overrides(second))
    both = dict(first)
    both.update(second)
    t_both = graph.longest_path_length(base.with_overrides(both))
    return t_both - t_first - t_second + t_base


def interaction_matrix(
    graph: DependenceGraph,
    base: LatencyConfig,
    optimisations: Sequence[Tuple[EventType, int]],
) -> np.ndarray:
    """Pairwise interaction costs of single-event optimisations.

    Args:
        optimisations: ``(event, new_latency)`` pairs.

    Returns:
        A symmetric (n x n) matrix; entry (i, j) is the interaction cost
        of optimisation i with optimisation j (diagonal is zero).
    """
    n = len(optimisations)
    matrix = np.zeros((n, n))
    for i in range(n):
        event_i, value_i = optimisations[i]
        for j in range(i + 1, n):
            event_j, value_j = optimisations[j]
            if event_i == event_j:
                continue
            cost = interaction_cost(
                graph, base, {event_i: value_i}, {event_j: value_j}
            )
            matrix[i, j] = cost
            matrix[j, i] = cost
    return matrix
