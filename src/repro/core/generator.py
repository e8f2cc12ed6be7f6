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
:class:`~repro.graphmodel.graph.SegmentView` and walked on their own.
Each segment is walked by one call into the compiled kernel
(:mod:`repro.core.native`) when it loads, and otherwise by the spec walk
:func:`_walk_segment`, which reduces each converging node with
:func:`~repro.core.reduction.reduce_stacks`.  With ``jobs > 1`` the
kernel's calls run on a thread pool, since ctypes releases the
interpreter lock for each call; the spec walk stays serial.  Per-segment
results are kept in segment order, so serial and threaded generation
produce bit-identical models (pinned by a differential test over the
full workload suite).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.core.model import GenerationStats, RpStacksModel
from repro.core.native import NativeWalk, load_native
from repro.core.reduction import ReductionPolicy, reduce_stacks
from repro.obs import clock
from repro.obs.observer import Observer, get_observer
from repro.graphmodel.graph import DependenceGraph, SegmentView


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


def _walk_view(
    view: SegmentView,
    theta: np.ndarray,
    policy: ReductionPolicy,
    native: Optional[NativeWalk],
    obs: Observer,
) -> Tuple[np.ndarray, int, int]:
    """Walk one segment view under its ``stacks.segment`` span.

    One call into the compiled kernel when it is loaded (*native*), the
    spec walk :func:`_walk_segment` otherwise.  The serial and the
    threaded walk both call this, so each segment records the same span
    and ``stacks.segment_seconds`` observation either way.  The kernel
    also counts its reductions' work, recorded on the span and summed
    into the ``stacks.cover_tests`` and ``stacks.similarity_evals``
    counters; the spec walk counts none.
    """
    start = clock.perf_seconds()
    with obs.span(
        "stacks.segment", segment=view.segment, uops=view.num_uops
    ) as span:
        if native is None:
            result = _walk_segment(view, theta, policy)
            work: Dict[str, int] = {}
        else:
            stacks, candidates, reductions, work = native.walk_segment(
                view, theta, policy
            )
            result = stacks, candidates, reductions
    if obs.enabled:
        stacks, _, reductions = result
        span.set(paths=stacks.shape[0], reductions=reductions, **work)
        for name, count in work.items():
            obs.counter(f"stacks.{name}").inc(count)
        obs.histogram("stacks.segment_seconds").observe(
            clock.perf_seconds() - start
        )
    return result


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
        jobs: the most threads the segment walk may use; ``1``
            (default) walks every segment serially.  Segments run on
            ``min(jobs, segments)`` threads when the compiled kernel is
            loaded; the spec walk holds the interpreter lock and stays
            serial.  Results are bit-identical either way — threads only
            reorder which segment is walked when, never what any segment
            computes.
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
        native = load_native()
        num_segments = self.graph.num_segments(self.segment_length)
        # Only the kernel's walk gains from threads: ctypes releases the
        # interpreter lock for each call, and the spec walk holds it.
        threads = min(self.jobs, num_segments) if native is not None else 1
        with obs.span(
            "stacks.generate",
            uops=self.graph.num_uops,
            segment_length=self.segment_length,
            jobs=self.jobs,
            native=native is not None,
            threads=threads,
        ) as span:
            model = self._generate(native, threads, obs)
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

    def _generate(
        self, native: Optional[NativeWalk], threads: int, obs: Observer
    ) -> RpStacksModel:
        start_time = clock.perf_seconds()
        graph = self.graph
        seg_len = self.segment_length
        views = [
            graph.segment_view(s, seg_len)
            for s in range(graph.num_segments(seg_len))
        ]
        theta = self.baseline.as_vector()

        def walk(view: SegmentView) -> Tuple[np.ndarray, int, int]:
            return _walk_view(view, theta, self.policy, native, obs)

        if threads > 1:
            # map() yields in segment order.  When a walk raises, or the
            # wait for one is interrupted, its iterator cancels the
            # queued walks before the exception propagates.
            with ThreadPoolExecutor(max_workers=threads) as pool:
                walked = list(pool.map(walk, views))
        else:
            walked = [walk(view) for view in views]

        stats = GenerationStats(
            nodes_visited=sum(view.num_nodes for view in views),
            candidate_stacks=sum(candidates for _, candidates, _ in walked),
            reductions=sum(reductions for _, _, reductions in walked),
        )
        stats.analysis_seconds = clock.perf_seconds() - start_time
        return RpStacksModel(
            [stacks for stacks, _, _ in walked],
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
