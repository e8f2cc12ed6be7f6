"""RpStacks generation: segmented stack propagation over the graph.

This is the paper's Section IV-D algorithm.  The dependence graph is
walked in topological order; every node carries the stall-event stacks of
the distinct performance-critical paths reaching it.  Crossing an edge
adds the edge's event charge to each stack; where paths converge the
reduction rules (similarity merge / dominance / uniqueness — Section
III-C) prune the population.  The stacks surviving at the final commit
node of each *segment* become that segment's representative stacks.

Segmentation (Fig 7b) bounds path diversity: edges crossing a segment
boundary are dropped, each segment is analysed from a fresh zero stack,
and the per-segment results are summed at prediction time.  The paper's
A-A'/B'-B argument — the summed per-segment maxima can slightly exceed
the true end-to-end critical path — is preserved and tested.

Because segments are independent by construction, the traversal shards:
each segment's nodes and intra-segment edges are sliced out as a
:class:`~repro.graphmodel.graph.SegmentView` and walked on their own,
either in-process or fanned out across worker processes through
:func:`repro.runtime.runner.parallel_map` (``jobs > 1``), inheriting its
worker span capture.  Per-segment results are merged back in segment
order, so serial and parallel generation produce bit-identical models
(pinned by a differential test over the full workload suite).

Each segment is walked by one call into the compiled kernel
(:mod:`repro.core.native`) when it loads, and otherwise by the spec walk
:func:`_walk_segment`, which reduces each converging node with
:func:`~repro.core.reduction.reduce_stacks`.
``RpStacksGenerator._generate_reference`` is the whole-graph walk spec:
a dict-of-lists walk over the unsliced graph that checks
``segment_view`` slicing independently, and the baseline for
``benchmarks/bench_generate.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.core.model import GenerationStats, RpStacksModel
from repro.core.native import load_native
from repro.core.reduction import ReductionPolicy, reduce_stacks
from repro.obs import clock
from repro.obs.observer import get_observer
from repro.graphmodel.graph import DependenceGraph, SegmentView
from repro.graphmodel.nodes import NODES_PER_UOP


def _walk_segment(
    view: SegmentView,
    base_theta: np.ndarray,
    policy: ReductionPolicy,
) -> Tuple[np.ndarray, int, int]:
    """Propagate stacks through one segment; return its sink population.

    The spec walk, which the compiled walk
    (:meth:`repro.core.native.NativeWalk.walk_segment`) must match bit
    for bit: per-node state lives in a slot table indexed by local node
    id, candidate populations are assembled with batched adds into one
    reused buffer, and :func:`~repro.core.reduction.reduce_stacks`
    reduces each converging node.

    Returns:
        ``(sink_stacks, candidate_stacks, reductions)`` — the reduced
        population at the segment's sink plus reduction statistics.
    """
    # Python lists for the per-node bookkeeping: scalar indexing into
    # ndarrays costs a boxing allocation per access, which adds up over
    # hundreds of thousands of nodes.
    indptr = view.in_indptr.tolist()
    src = view.edge_src.tolist()
    charges = view.charge_matrix()
    has_charge = (charges != 0).any(axis=1).tolist()
    degree = np.diff(view.in_indptr).tolist()

    zero_set = np.zeros((1, NUM_EVENTS))
    sets: List[Optional[np.ndarray]] = [None] * view.num_nodes
    # One growing buffer assembles every node's candidate population;
    # reduce_stacks copies survivors out, so the buffer is free to reuse.
    buffer = np.empty((64, NUM_EVENTS))
    candidate_stacks = 0
    reductions = 0

    for v in view.topological_order().tolist():
        deg = degree[v]
        if deg == 0:
            sets[v] = zero_set  # segment entry: start from nothing
            continue
        begin = indptr[v]
        if deg == 1:
            # Fast path: one predecessor — the set moves unchanged
            # (shared) or shifted by the edge charge; reduction is a
            # no-op because adding a constant preserves both the
            # ordering and the dominance relation of the population.
            pred = sets[src[begin]]
            sets[v] = pred + charges[begin] if has_charge[begin] else pred
            continue
        blocks = [sets[src[e]] for e in range(begin, begin + deg)]
        total = sum(block.shape[0] for block in blocks)
        if total > buffer.shape[0]:
            buffer = np.empty((2 * total, NUM_EVENTS))
        candidates = buffer[:total]
        offset = 0
        for e, block in enumerate(blocks, begin):
            out = candidates[offset : offset + block.shape[0]]
            if has_charge[e]:
                np.add(block, charges[e], out=out)
            else:
                out[:] = block
            offset += block.shape[0]
        candidate_stacks += total
        reductions += 1
        sets[v] = reduce_stacks(candidates, base_theta, policy)

    return sets[view.sink_local].copy(), candidate_stacks, reductions


def _segment_batch_task(
    views: Sequence[SegmentView],
    base_theta: np.ndarray,
    policy: ReductionPolicy,
) -> Tuple[List[np.ndarray], int, int, int]:
    """Walk a batch of segment views (one :func:`parallel_map` task).

    Each view is walked by the compiled kernel in one call when it
    loads, and by the spec walk :func:`_walk_segment` otherwise.
    Module-level so it pickles into pool workers.  Spans and metrics
    record into the ambient observer: in-process that is the caller's
    observer directly; in a worker it is the capturing observer whose
    events :func:`~repro.runtime.runner.parallel_map` merges back into
    the parent timeline.
    """
    obs = get_observer()
    native = load_native()
    theta = np.ascontiguousarray(base_theta, dtype=np.float64)
    results: List[np.ndarray] = []
    nodes_visited = 0
    candidate_stacks = 0
    reductions = 0
    for view in views:
        start = clock.perf_seconds()
        with obs.span(
            "stacks.segment", segment=view.segment, uops=view.num_uops
        ) as span:
            if native is None:
                stacks, candidates, reduces = _walk_segment(
                    view, base_theta, policy
                )
            else:
                stacks, candidates, reduces = native.walk_segment(
                    view, theta, policy
                )
        if obs.enabled:
            span.set(paths=stacks.shape[0], reductions=reduces)
            obs.histogram("stacks.segment_seconds").observe(
                clock.perf_seconds() - start
            )
        results.append(stacks)
        nodes_visited += view.num_nodes
        candidate_stacks += candidates
        reductions += reduces
    return results, nodes_visited, candidate_stacks, reductions


class RpStacksGenerator:
    """Generates an :class:`RpStacksModel` from one dependence graph.

    Args:
        graph: the baseline run's dependence graph.
        baseline: latency configuration of the generating simulation
            (prices the keep-the-larger merge rule).
        policy: path-reduction tunables.
        segment_length: graph segment size in µops.  The paper tunes
            5000 for 1M-µop SimPoints; our streams are ~10^3 µops and
            statistically homogeneous, so the scaled default is 256 —
            the Fig 14 bench sweeps this and shows the same U-shaped
            error curve (small segments over-predict via boundary
            traversals, large segments lose hidden paths to reduction).
        jobs: worker processes for the segment walk; ``1`` (default)
            walks every segment in-process.  Results are bit-identical
            either way — parallelism only reorders which segment is
            walked when, never what any segment computes.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        baseline: LatencyConfig,
        policy: Optional[ReductionPolicy] = None,
        segment_length: int = 256,
        jobs: int = 1,
    ) -> None:
        if segment_length < 1:
            raise ValueError("segment_length must be positive")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.graph = graph
        self.baseline = baseline
        self.policy = policy or ReductionPolicy()
        self.segment_length = segment_length
        self.jobs = jobs

    def generate(self) -> RpStacksModel:
        """Run the traversal and return the model."""
        obs = get_observer()
        with obs.span(
            "stacks.generate",
            uops=self.graph.num_uops,
            segment_length=self.segment_length,
            jobs=self.jobs,
            native=load_native() is not None,
        ) as span:
            model = self._generate()
        if obs.enabled:
            span.set(
                paths=model.num_paths, segments=model.num_segments
            )
            obs.gauge("stacks.paths").set(model.num_paths)
            obs.gauge("stacks.segments").set(model.num_segments)
            obs.histogram("stacks.generate_seconds").observe(
                model.stats.analysis_seconds
            )
        return model

    def _generate(self) -> RpStacksModel:
        start_time = clock.perf_seconds()
        graph = self.graph
        base_theta = self.baseline.as_vector()
        policy = self.policy
        seg_len = self.segment_length

        num_segments = graph.num_segments(seg_len)
        views = [graph.segment_view(s, seg_len) for s in range(num_segments)]

        stats = GenerationStats()
        segment_results: List[np.ndarray] = []
        if self.jobs <= 1 or num_segments <= 1:
            # In-process: one batch, spans record straight into the
            # ambient observer.
            if views:
                results, nodes, candidates, reduces = _segment_batch_task(
                    views, base_theta, policy
                )
                segment_results.extend(results)
                stats.nodes_visited += nodes
                stats.candidate_stacks += candidates
                stats.reductions += reduces
        else:
            from repro.runtime.runner import parallel_map

            # Several batches per worker for load balance; contiguous
            # slices keep task order == segment order, so flattening the
            # (order-preserving) outcomes order-merges the segments.
            batches = min(num_segments, self.jobs * 4)
            bounds = np.linspace(0, num_segments, batches + 1).astype(int)
            tasks = [
                (views[lo:hi], base_theta, policy)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            outcomes = parallel_map(
                _segment_batch_task,
                tasks,
                jobs=self.jobs,
                obs=get_observer(),
            )
            for outcome in outcomes:
                if not outcome.ok:
                    raise RuntimeError(
                        "segment batch failed after "
                        f"{outcome.attempts} attempt(s): {outcome.error}"
                    )
                results, nodes, candidates, reduces = outcome.value
                segment_results.extend(results)
                stats.nodes_visited += nodes
                stats.candidate_stacks += candidates
                stats.reductions += reduces

        stats.analysis_seconds = clock.perf_seconds() - start_time
        return RpStacksModel(
            segment_results,
            baseline=self.baseline,
            num_uops=graph.num_uops,
            stats=stats,
        )

    def _generate_reference(self) -> RpStacksModel:
        """Whole-graph serial walk: the spec of the segment walk.

        Dict-of-lists node state and a per-edge Python inner loop over
        the unsliced graph, dropping cross-segment edges as it meets
        them, with :func:`reduce_stacks` at every converging node.  It
        never calls ``segment_view``, so differential tests against it
        check the slicing as well as the walk.
        """
        start_time = clock.perf_seconds()
        graph = self.graph
        base_theta = self.baseline.as_vector()
        policy = self.policy
        seg_len = self.segment_length

        topo = graph.topological_order()
        src = graph.edge_src.tolist()
        indptr = graph.in_indptr.tolist()
        charge_rows = graph.edge_charge_vectors()
        edge_has_charge = (charge_rows != 0).any(axis=1).tolist()

        num_nodes = graph.num_nodes
        # Remaining consumers per node, for releasing stack sets early.
        remaining = [0] * num_nodes
        for s in src:
            remaining[s] += 1

        zero_set = np.zeros((1, NUM_EVENTS))
        node_sets: Dict[int, np.ndarray] = {}
        segment_results: List[np.ndarray] = []
        num_segments = (graph.num_uops + seg_len - 1) // seg_len
        segment_sinks = set()
        for segment in range(num_segments):
            last_uop = min((segment + 1) * seg_len, graph.num_uops) - 1
            segment_sinks.add(last_uop * NODES_PER_UOP + (NODES_PER_UOP - 1))

        stats = GenerationStats()
        sink_results: Dict[int, np.ndarray] = {}

        for v in topo:
            segment = (v // NODES_PER_UOP) // seg_len
            begin, end = indptr[v], indptr[v + 1]
            gathered: List[np.ndarray] = []
            single: Optional[np.ndarray] = None
            single_edge = -1
            intra_edges = 0
            for e in range(begin, end):
                s = src[e]
                remaining[s] -= 1
                released = remaining[s] == 0
                if (s // NODES_PER_UOP) // seg_len != segment:
                    if released:
                        node_sets.pop(s, None)
                    continue  # segment boundary: cross edges are dropped
                intra_edges += 1
                pred_set = node_sets.get(s, zero_set)
                if intra_edges == 1:
                    single = pred_set
                    single_edge = e
                else:
                    if single is not None:
                        gathered.append(
                            single + charge_rows[single_edge]
                            if edge_has_charge[single_edge]
                            else single
                        )
                        single = None
                    gathered.append(
                        pred_set + charge_rows[e]
                        if edge_has_charge[e]
                        else pred_set
                    )
                if released:
                    node_sets.pop(s, None)

            if intra_edges == 0:
                result = zero_set  # segment entry: start from nothing
            elif single is not None:
                result = (
                    single + charge_rows[single_edge]
                    if edge_has_charge[single_edge]
                    else single
                )
            else:
                candidates = np.vstack(gathered)
                stats.candidate_stacks += candidates.shape[0]
                result = reduce_stacks(candidates, base_theta, policy)
                stats.reductions += 1
            node_sets[v] = result
            stats.nodes_visited += 1
            if v in segment_sinks:
                sink_results[v] = result.copy()

        # Order the segment results by segment index.
        for sink in sorted(sink_results):
            segment_results.append(sink_results[sink])

        stats.analysis_seconds = clock.perf_seconds() - start_time
        return RpStacksModel(
            segment_results,
            baseline=self.baseline,
            num_uops=graph.num_uops,
            stats=stats,
        )


def generate_rpstacks(
    graph: DependenceGraph,
    baseline: LatencyConfig,
    similarity_threshold: float = 0.7,
    segment_length: int = 256,
    max_paths: int = 32,
    preserve_unique: bool = True,
    include_base_in_similarity: bool = False,
    jobs: int = 1,
) -> RpStacksModel:
    """One-call convenience wrapper around :class:`RpStacksGenerator`."""
    policy = ReductionPolicy(
        similarity_threshold=similarity_threshold,
        max_paths=max_paths,
        preserve_unique=preserve_unique,
        include_base_in_similarity=include_base_in_similarity,
    )
    return RpStacksGenerator(
        graph,
        baseline,
        policy=policy,
        segment_length=segment_length,
        jobs=jobs,
    ).generate()
