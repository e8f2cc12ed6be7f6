"""Dependence-graph container, longest-path evaluation, re-pricing.

A :class:`DependenceGraph` is a DAG over pipeline-stage nodes whose edges
carry sparse *event charges*: one zero-padded row of up to three
``(event, units)`` pairs per edge, held in the packed ``events`` /
``units`` arrays.  An edge's weight under a latency configuration θ is
``Σ units · θ[event]``, so the whole graph re-prices for a new design
point without rebuilding — the property both the Fields-style
re-evaluation baseline and the RpStacks generator exploit.

The longest path from the virtual start (all-zero sources) to the final
commit node is the graph model's predicted execution time; backtracking
its parent chain yields the critical path's stall-event stack (CP1).
:meth:`DependenceGraph._relax` is the spec of that pass: a Python relax
loop over :meth:`DependenceGraph.topological_order`.  When the compiled
kernel loads (:meth:`repro.core.native.NativeWalk.longest_path`, behind
the ``REPRO_NATIVE`` gate), ``longest_path_length``, ``critical_path``
and ``node_distances`` run on it instead, with bit-identical distances
and parents; ``REPRO_NATIVE=0`` runs the spec.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.graphmodel.nodes import NODES_PER_UOP, Stage, node_id

#: Maximum (event, units) pairs an edge can carry.
MAX_EDGE_EVENTS = 3


class GraphBuildError(ValueError):
    """Raised when edge lists are malformed (e.g. cyclic)."""


def _charge_matrix(events: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Dense (m x NUM_EVENTS) unit matrix from packed charge arrays.

    One flat ``bincount`` over row-offset event ids; an order of
    magnitude faster than ``np.add.at`` scatter on the same data
    (padding slots carry zero units, so they land harmlessly in bin 0).
    """
    count = events.shape[0]
    if count == 0:
        return np.zeros((0, NUM_EVENTS), dtype=np.float64)
    flat_ids = events + (
        np.arange(count, dtype=np.int64)[:, None] * NUM_EVENTS
    )
    flat = np.bincount(
        flat_ids.ravel(),
        weights=units.ravel(),
        minlength=count * NUM_EVENTS,
    )
    return flat.reshape(count, NUM_EVENTS)


def _kahn_order(
    num_nodes: int, edge_src: np.ndarray, edge_dst: np.ndarray
) -> List[int]:
    """Topological order of ``num_nodes`` nodes joined by the edges
    ``edge_src[e] -> edge_dst[e]``; raises :class:`GraphBuildError` on a
    cycle.

    Kahn's algorithm over plain lists: the graphs' waves are shallow, so
    per-wave vectorisation pays more in ufunc dispatch than it saves.
    """
    indegree = np.bincount(edge_dst, minlength=num_nodes).tolist()
    out_dst = edge_dst[np.argsort(edge_src, kind="stable")].tolist()
    out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_src, minlength=num_nodes), out=out_indptr[1:])
    out_indptr = out_indptr.tolist()

    queue = deque(v for v in range(num_nodes) if indegree[v] == 0)
    topo: List[int] = []
    while queue:
        v = queue.popleft()
        topo.append(v)
        for e in range(out_indptr[v], out_indptr[v + 1]):
            w = out_dst[e]
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(topo) != num_nodes:
        raise GraphBuildError("dependence graph contains a cycle")
    return topo


@dataclass
class SegmentView:
    """One segment's slice of a dependence graph (Fig 7b).

    Segmentation makes segments *independent by construction*: edges
    crossing a segment boundary are dropped and every segment starts
    from a fresh zero stack.  A view therefore carries everything a
    traversal of that segment needs — the intra-segment edges in local
    (segment-relative) CSR form plus their packed event charges — and
    nothing else, so each segment walks on its own.

    Local node ``v`` corresponds to global node ``node_offset + v``; the
    in-edge order per node matches the parent graph's CSR order, so a
    walk over a view gathers predecessor blocks in the parent graph's
    in-edge order.
    """

    segment: int
    first_uop: int
    num_uops: int
    node_offset: int
    num_nodes: int
    #: (num_nodes + 1,) CSR row pointer over *intra-segment* in-edges.
    in_indptr: np.ndarray
    #: (m,) local source node per intra-segment edge, CSR order.
    edge_src: np.ndarray
    #: (m, MAX_EDGE_EVENTS) packed event ids (zero-padded).
    events: np.ndarray
    #: (m, MAX_EDGE_EVENTS) packed event units (zero-padded).
    units: np.ndarray
    _topo: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def sink_local(self) -> int:
        """Local id of the segment's sink: the last µop's commit node."""
        return self.num_uops * NODES_PER_UOP - 1

    def charge_matrix(self) -> np.ndarray:
        """Dense (m x NUM_EVENTS) charge matrix of the intra edges."""
        return _charge_matrix(self.events, self.units)

    def topological_order(self) -> np.ndarray:
        """Topological order of the segment's nodes (computed once).

        Any topological order yields bit-identical traversal results (a
        node's stacks depend only on its predecessors' stacks and its
        in-edge CSR order), so this order needs no relation to the
        parent graph's global order.
        """
        if self._topo is None:
            n = self.num_nodes
            edge_dst = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.in_indptr)
            )
            self._topo = np.asarray(
                _kahn_order(n, self.edge_src, edge_dst), dtype=np.int64
            )
        return self._topo


class DependenceGraph:
    """Immutable dependence graph over ``13 * num_uops`` nodes.

    Build via :func:`~repro.graphmodel.builder.build_graph`; tests build
    small graphs by hand with :func:`~repro.graphmodel.builder.pack_edges`.
    The one constructor adopts packed edge arrays and checks their
    layout, raising :class:`GraphBuildError` on a violation:

    * ``edge_src`` / ``edge_dst`` are equal-length and sorted by
      destination, which makes ``in_indptr`` a CSR over in-edges;
    * ``events`` / ``units`` are ``(num_edges, MAX_EDGE_EVENTS)`` rows
      of ``(event, units)`` pairs, zero-padded: a slot with zero units
      holds event 0;
    * no unit count is negative: stall-event stacks are non-negative,
      which the compiled segment walk relies on.
    """

    def __init__(
        self,
        num_uops: int,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        events: np.ndarray,
        units: np.ndarray,
    ) -> None:
        self.num_uops = num_uops
        self.num_nodes = num_uops * NODES_PER_UOP
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.events = np.asarray(events, dtype=np.int16)
        self.units = np.asarray(units, dtype=np.int32)
        self.num_edges = len(self.edge_src)
        shape = (self.num_edges,)
        if self.edge_src.shape != shape or self.edge_dst.shape != shape:
            raise GraphBuildError("edge arrays must have equal length")
        rows = (self.num_edges, MAX_EDGE_EVENTS)
        if self.events.shape != rows or self.units.shape != rows:
            raise GraphBuildError(f"events and units must have shape {rows}")
        if not (self.edge_dst[:-1] <= self.edge_dst[1:]).all():
            raise GraphBuildError("edges must be sorted by destination")
        if (self.units < 0).any():
            raise GraphBuildError("edges carry a negative unit count")
        if ((self.units == 0) & (self.events != 0)).any():
            raise GraphBuildError("a zero-unit slot must hold event 0")

        # CSR over incoming edges (edges are sorted by dst).
        self.in_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.edge_dst, minlength=self.num_nodes),
            out=self.in_indptr[1:],
        )

        # The spec relax's whole-graph Python lists, built on its first
        # run (the compiled kernel needs none of them).
        self._topo: Optional[List[int]] = None
        self._src_list: Optional[List[int]] = None
        self._indptr_list: Optional[List[int]] = None

    # ------------------------------------------------------------------

    @property
    def sink(self) -> int:
        """Commit node of the last µop — the end of every execution path."""
        return node_id(self.num_uops - 1, Stage.C)

    def edge_weights(self, latency: LatencyConfig) -> np.ndarray:
        """Per-edge weights (cycles) under *latency*."""
        theta = latency.as_vector()
        return (self.units * theta[self.events]).sum(axis=1)

    # ------------------------------------------------------------------

    def num_segments(self, segment_length: int) -> int:
        """Number of segments the graph splits into at *segment_length*."""
        if segment_length < 1:
            raise ValueError("segment_length must be positive")
        return (self.num_uops + segment_length - 1) // segment_length

    def segment_view(self, segment: int, segment_length: int) -> SegmentView:
        """Slice out one segment's nodes and intra-segment edges.

        Reuses the packed CSR arrays: edges are stored sorted by
        destination, so a segment's candidate in-edges occupy one
        contiguous slice, from which cross-boundary edges (sources
        outside the segment) are masked out — the paper's rule that
        boundary-crossing dependences are dropped.  The surviving edges
        keep their relative CSR order, so per-node predecessor order is
        the parent graph's.
        """
        count = self.num_segments(segment_length)
        if not 0 <= segment < count:
            raise IndexError(
                f"segment {segment} out of range ({count} segments)"
            )
        first_uop = segment * segment_length
        seg_uops = min(segment_length, self.num_uops - first_uop)
        lo = first_uop * NODES_PER_UOP
        n = seg_uops * NODES_PER_UOP
        hi = lo + n

        begin = int(self.in_indptr[lo])
        end = int(self.in_indptr[hi])
        src = self.edge_src[begin:end]
        intra = (src >= lo) & (src < hi)
        per_node = np.diff(self.in_indptr[lo : hi + 1])
        dst_local = np.repeat(np.arange(n, dtype=np.int64), per_node)[intra]
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst_local, minlength=n), out=in_indptr[1:])
        return SegmentView(
            segment=segment,
            first_uop=first_uop,
            num_uops=seg_uops,
            node_offset=lo,
            num_nodes=n,
            in_indptr=in_indptr,
            edge_src=(src[intra] - lo).astype(np.int64),
            events=self.events[begin:end][intra],
            units=self.units[begin:end][intra],
        )

    # ------------------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Topological node order (computed once, cached).

        Kahn's algorithm; raises :class:`GraphBuildError` on a cycle.
        """
        if self._topo is None:
            self._topo = _kahn_order(
                self.num_nodes, self.edge_src, self.edge_dst
            )
        return self._topo

    def longest_path_length(self, latency: LatencyConfig) -> float:
        """Predicted execution cycles: the longest path to the sink."""
        dist, _parent = self._longest_path(latency, track_parents=False)
        return float(dist[self.sink])

    def critical_path(
        self, latency: LatencyConfig
    ) -> Tuple[float, np.ndarray]:
        """Longest path to the sink plus its stall-event decomposition.

        Returns:
            ``(length, stack)`` where ``stack`` is the per-event unit
            vector accumulated along the critical path — repricing it
            under θ' gives ``stack @ θ'`` cycles (the CP1 predictor).
        """
        dist, parent = self._longest_path(latency, track_parents=True)
        src = self.edge_src
        path_edges: List[int] = []
        edge = parent.item(self.sink)
        while edge >= 0:
            path_edges.append(edge)
            edge = parent.item(src.item(edge))
        stack = np.zeros(NUM_EVENTS, dtype=np.float64)
        if path_edges:
            # Padded (event=0, units=0) slots contribute nothing.
            idx = np.asarray(path_edges, dtype=np.int64)
            np.add.at(
                stack, self.events[idx].ravel(), self.units[idx].ravel()
            )
        return float(dist[self.sink]), stack

    def _longest_path(
        self, latency: LatencyConfig, track_parents: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(dist, parent)`` arrays over every node: the compiled kernel
        when it loads, else the spec :meth:`_relax`, with the same
        values.  ``parent`` holds each node's winning in-edge (-1 for
        none), and is ``None`` unless *track_parents*.
        """
        # Local import: repro.core imports this module.
        from repro.core.native import load_native

        native = load_native()
        if native is None:
            dist, parent = self._relax(latency, track_parents)
            return np.asarray(dist), (
                np.asarray(parent, dtype=np.int64) if track_parents else None
            )
        return native.longest_path(
            self.in_indptr,
            self.edge_src,
            self.edge_weights(latency),
            track_parents,
        )

    def _relax(
        self, latency: LatencyConfig, track_parents: bool
    ) -> Tuple[List[float], List[int]]:
        """The spec longest path: relax nodes in the Python
        :meth:`topological_order`, starting each at 0.0 and taking an
        in-edge (in CSR order) only when it is strictly longer."""
        weights = self.edge_weights(latency).tolist()
        if self._src_list is None:
            self._src_list = self.edge_src.tolist()
            self._indptr_list = self.in_indptr.tolist()
        src = self._src_list
        indptr = self._indptr_list
        dist: List[float] = [0.0] * self.num_nodes
        parent: List[int] = [-1] * self.num_nodes if track_parents else []
        for v in self.topological_order():
            begin, end = indptr[v], indptr[v + 1]
            if begin == end:
                continue
            best = 0.0
            best_edge = -1
            for e in range(begin, end):
                cand = dist[src[e]] + weights[e]
                if cand > best:
                    best = cand
                    best_edge = e
            dist[v] = best
            if track_parents:
                parent[v] = best_edge
        return dist, parent

    def node_distances(self, latency: LatencyConfig) -> List[float]:
        """Longest-path distance to every node (diagnostics, tests)."""
        dist, _ = self._longest_path(latency, track_parents=False)
        return dist.tolist()
