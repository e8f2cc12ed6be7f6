"""Streaming design-space sweep engine.

The paper's headline claim is that an RpStacks model prices design
points in microseconds, so the exploration bottleneck should be the
hardware, not the Python object layer.  :class:`~repro.dse.explorer.Explorer.explore`
materialises every point as a :class:`~repro.common.config.LatencyConfig`
— fine for thousands of points, memory- and CPU-bound for millions.

This module is the one fast path beside that materialised reference.
It prices only through a predictor's matrix kernel
(``predict_cycles_matrix`` and ``num_uops``, which
:class:`~repro.core.model.RpStacksModel` provides) and costs only with
:func:`~repro.dse.explorer.default_cost_model`; any other predictor or
cost model goes through ``Explorer.explore``:

* before any chunk is priced, the model is restricted to the space's
  box (:meth:`DesignSpace.bounds`, :meth:`RpStacksModel.restricted`):
  per segment, only the stacks that can be the maximum somewhere in
  the space are kept, so pricing cost follows the stacks that can win
  in the explored space rather than the size of the model;
* points are enumerated as pricing-vector *chunks* into one
  ``(NUM_EVENTS, chunk)`` block allocated per sweep: the unswept rows
  hold the base latency throughout, and each chunk rewrites only the
  swept rows, each laid out from the runs of its axis' value pattern
  (:meth:`DesignSpace.fill_thetas`), with no per-point index arithmetic
  and no per-point objects;
* each chunk is priced by one matrix product per segment of the
  restricted model (:meth:`RpStacksModel.predict_cycles_matrix`) and
  costed from one term table per swept axis, laid out the same way
  (:func:`default_cost_tables`, :meth:`DesignSpace.sum_axis_tables`);
* a bounded-memory reduction keeps only the candidates that can still
  reach the cost/CPI Pareto front, so a multi-million-point space never
  resides in RAM at once.  Before the exact prune, a *staircase
  screen* drops the chunk's points that a strided sample of the chunk
  dominates; it costs a few array passes where the prune's sort costs
  ``n log n``.

**Exactness.** The reduction keeps every point whose CPI is strictly
below the minimum CPI of all points preceding it in ``(cost, cpi,
index)`` order.  A point dropped by that rule can never appear in
:meth:`ExplorationResult.pareto_front` (the front's scan requires each
kept point to beat *some* preceding survivor, and the dropped point has
a preceding dominator), and the rule is confluent: pruning each chunk
and then the running set yields the same surviving set as pruning all
points at once, so the candidate list does not depend on the chunk
size.  The screen keeps that set too.  It drops a point only when some
point of the chunk is strictly cheaper with a CPI no higher; that
point precedes it in the order, so the prune would drop it as well.
Removing it changes no other verdict: whatever it preceded, its
dominator (or, if that was dropped too, the end of the chain of
strictly cheaper dominators) precedes with a CPI no higher, so every
running minimum stays the same.  The screen reads only the chunk, so
the candidate set, ``meeting_target`` and ``peak_candidates`` are the
unscreened sweep's.
Stack unit counts and latencies are integers (the model's
constructor enforces it), so every matmul intermediate is exact in
float64, and neither chunking nor the restriction can change a single
bit: the streamed front is **bit-identical** to the materialised
explorer's, which prices the full model and which
``tests/dse/test_sweep.py`` asserts against differentially.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.common.events import NUM_EVENTS
from repro.core.model import RpStacksModel
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import (
    Candidate,
    ExplorationResult,
    SweepMetrics,
    default_cost_tables,
)
from repro.obs import clock
from repro.obs.observer import get_observer

#: Default points per evaluation chunk: big enough to amortise the BLAS
#: call, small enough that a chunk's intermediates stay cache-friendly.
DEFAULT_CHUNK_SIZE = 65536

#: Default seconds between progress lines when an interval isn't given
#: explicitly (progress is emitted only under an enabled observer).
DEFAULT_PROGRESS_INTERVAL = 10.0

#: chunks in the trailing window behind the progress line's rolling
#: points/s and ETA (and SweepMetrics' end-of-run rolling rate).
ROLLING_WINDOW_CHUNKS = 8

#: Points in the strided sample behind each staircase pass of a chunk.
_STAIRCASE_SAMPLE = 1024

#: Cost buckets of a staircase pass.
_STAIRCASE_BUCKETS = 4096

#: Spans that split each ``sweep.chunk`` under an enabled observer, in
#: the order the chunk runs them.
CHUNK_STAGES = ("sweep.enumerate", "sweep.price", "sweep.cost", "sweep.prune")


def _prune(
    indices: np.ndarray, cpis: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop every candidate that cannot reach the Pareto front.

    Keeps point ``p`` iff its CPI is strictly below the CPI of every
    point sorted before it by ``(cost, cpi, index)`` — a conservative
    superset of the front (near-ties within the front's 1e-12 epsilon
    are retained for the final exact scan).  Output is sorted by that
    same key, which makes merges order-insensitive.
    """
    if indices.size == 0:
        return indices, cpis, costs
    order = np.lexsort((indices, cpis, costs))
    sorted_cpis = cpis[order]
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    keep[1:] = sorted_cpis[1:] < np.minimum.accumulate(sorted_cpis)[:-1]
    chosen = order[keep]
    return indices[chosen], cpis[chosen], costs[chosen]


def _staircase_pass(
    cpis: np.ndarray, costs: np.ndarray
) -> Optional[np.ndarray]:
    """Positions of the points a strided sample does not dominate.

    A point is dropped when some sample point is strictly cheaper and
    has a CPI no higher.  Costs are cut into ``_STAIRCASE_BUCKETS``
    equal buckets; a sample point counts against every point of a
    higher bucket, where it is strictly cheaper because the bucket map
    is monotone.  The staircase is the running CPI minimum of the
    sample over the buckets, so the test costs a few array passes
    rather than a sort.  ``None`` when the costs cannot be bucketed:
    all equal, not all finite, or spread too little to scale.
    """
    low = float(costs.min())
    spread = float(costs.max()) - low
    scale = (_STAIRCASE_BUCKETS - 1) / spread if spread > 0 else math.inf
    if not (math.isfinite(spread) and math.isfinite(scale)):
        return None
    # An odd stride keeps the sample from locking onto one value of the
    # fast axes, whose periods are often powers of two.
    step = (cpis.size // _STAIRCASE_SAMPLE) | 1
    sample = ((costs[::step] - low) * scale).astype(np.intp)
    # stair[b]: the lowest sample CPI in buckets below b.
    stair = np.full(_STAIRCASE_BUCKETS + 1, np.inf)
    np.minimum.at(stair, sample + 1, cpis[::step])
    np.minimum.accumulate(stair, out=stair)
    buckets = ((costs - low) * scale).astype(np.intp)
    return np.flatnonzero(~(stair[buckets] <= cpis))


def _screen(
    cpis: np.ndarray, costs: np.ndarray
) -> Optional[np.ndarray]:
    """Positions that survive repeated staircase passes (``None``: all).

    Passes repeat while each at least halves the set.  Every dropped
    point has a strictly cheaper point with CPI no higher, so
    :func:`_prune` would drop it too and keeps the same set with or
    without it (the confluence argument in the module docstring).
    """
    kept = None
    while cpis.size > _STAIRCASE_SAMPLE:
        survivors = _staircase_pass(cpis, costs)
        if survivors is None:
            break
        before = cpis.size
        kept = survivors if kept is None else kept[survivors]
        cpis = cpis[survivors]
        costs = costs[survivors]
        if 2 * survivors.size > before:
            break
    return kept


def _sweep_chunks(
    predictor,
    space: DesignSpace,
    chunk_size: int,
    target_cpi: Optional[float],
    top_k: Optional[int],
    obs,
    progress_interval: Optional[float],
) -> dict:
    """Price every point of *space* chunk by chunk, merging each
    chunk's survivors into a running pruned candidate set.

    Returns a handful of small arrays and counts, not design points.
    Under an enabled *obs* each chunk becomes a ``sweep.chunk`` span
    split into :data:`CHUNK_STAGES`, and a progress line is emitted
    every *progress_interval* seconds; the disabled path is hoisted to
    one ``obs.enabled`` check per chunk.
    """
    instrumented = obs.enabled
    interval = (
        progress_interval
        if progress_interval is not None
        else DEFAULT_PROGRESS_INTERVAL
    )
    last_progress = clock.perf_seconds()
    total = space.num_points
    # One block of pricing vectors, refilled per chunk: unswept rows
    # hold the base latency from the start, and each chunk rewrites only
    # the swept rows.
    block = np.empty((NUM_EVENTS, min(chunk_size, total)))
    block[...] = space.base.as_vector()[:, np.newaxis]
    cost_tables = default_cost_tables(space)
    held_idx = np.empty(0, dtype=np.int64)
    held_cpi = np.empty(0, dtype=np.float64)
    held_cost = np.empty(0, dtype=np.float64)
    meeting = 0
    peak = 0
    chunk_seconds: List[float] = []
    total_chunks = -(-total // chunk_size)
    # Trailing (points, seconds) window for the progress line's rate.
    recent: List[Tuple[int, float]] = []
    for lo in range(0, total, chunk_size):
        hi = min(lo + chunk_size, total)
        wall_tick = clock.wall_ns() if instrumented else 0
        ticks = [clock.perf_seconds()]
        thetas = block[:, :hi - lo]
        space.fill_thetas(thetas, lo)
        ticks.append(clock.perf_seconds())
        cpis = predictor.predict_cycles_matrix(thetas) / predictor.num_uops
        # ``kept`` stays None while every point meets the target, which
        # spares the chunk's gather copies.
        kept = None
        if target_cpi is not None:
            meets = cpis <= target_cpi
            if not meets.all():
                kept = np.flatnonzero(meets)
                cpis = cpis[kept]
        meeting += int(cpis.size)
        ticks.append(clock.perf_seconds())
        costs = space.sum_axis_tables(cost_tables, lo, hi)
        if kept is not None:
            costs = costs[kept]
        ticks.append(clock.perf_seconds())
        screened = _screen(cpis, costs)
        if screened is not None:
            kept = screened if kept is None else kept[screened]
            cpis = cpis[screened]
            costs = costs[screened]
        indices = (
            np.arange(lo, hi, dtype=np.int64)
            if kept is None
            else kept.astype(np.int64) + lo
        )
        prune_inputs = int(indices.size)
        indices, cpis, costs = _prune(indices, cpis, costs)
        peak = max(peak, int(held_idx.size + indices.size))
        held_idx = np.concatenate((held_idx, indices))
        held_cpi = np.concatenate((held_cpi, cpis))
        held_cost = np.concatenate((held_cost, costs))
        held_idx, held_cpi, held_cost = _prune(held_idx, held_cpi, held_cost)
        if top_k is not None and held_idx.size > top_k:
            held_idx = held_idx[:top_k]
            held_cpi = held_cpi[:top_k]
            held_cost = held_cost[:top_k]
        now = clock.perf_seconds()
        ticks.append(now)
        chunk_seconds.append(now - ticks[0])
        recent.append((hi - lo, chunk_seconds[-1]))
        if len(recent) > ROLLING_WINDOW_CHUNKS:
            del recent[0]
        if instrumented:
            obs.record(
                "sweep.chunk",
                wall_tick,
                int(chunk_seconds[-1] * 1e9),
                start=lo,
                stop=hi,
                survivors=int(held_idx.size),
            )
            for name, begin, end in zip(CHUNK_STAGES, ticks, ticks[1:]):
                obs.record(
                    name,
                    wall_tick + int((begin - ticks[0]) * 1e9),
                    int((end - begin) * 1e9),
                )
            obs.counter("sweep.points").inc(hi - lo)
            obs.counter("sweep.prune_inputs").inc(prune_inputs)
            obs.histogram("sweep.chunk_seconds").observe(chunk_seconds[-1])
            obs.gauge("prune.survivors").set(int(held_idx.size))
            if now - last_progress >= interval:
                last_progress = now
                chunks_done = len(chunk_seconds)
                window_points = sum(p for p, _ in recent)
                window_seconds = sum(s for _, s in recent)
                rolling = (
                    window_points / window_seconds
                    if window_seconds > 0
                    else 0.0
                )
                eta = (total - hi) / rolling if rolling > 0 else 0.0
                obs.progress(
                    f"sweep: {chunks_done}/{total_chunks} chunks, "
                    f"{hi:,} points priced, "
                    f"front size {held_idx.size}, "
                    f"{rolling:,.0f} points/s, ETA {eta:.1f}s",
                    chunks_done=chunks_done,
                    total_chunks=total_chunks,
                    points_priced=hi,
                    front_size=int(held_idx.size),
                    rolling_points_per_sec=rolling,
                    eta_seconds=eta,
                )
    return {
        "indices": held_idx,
        "cpis": held_cpi,
        "costs": held_cost,
        "meeting": meeting,
        "peak": peak,
        "chunk_seconds": chunk_seconds,
    }


def sweep_space(
    predictor,
    space: DesignSpace,
    target_cpi: Optional[float] = None,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    top_k: Optional[int] = None,
    obs=None,
    progress_interval: Optional[float] = None,
) -> ExplorationResult:
    """Sweep *space* in bounded memory, streaming chunks of pricing
    vectors through the predictor's matrix kernel and a Pareto
    reduction.

    Args:
        predictor: an :class:`~repro.core.model.RpStacksModel`, or any
            object with ``predict_cycles_matrix`` and ``num_uops``.  An
            ``RpStacksModel`` is priced through
            :meth:`~repro.core.model.RpStacksModel.restricted` to the
            space's :meth:`~repro.dse.designspace.DesignSpace.bounds`.
            Any other predictor, or another cost model, is priced by the
            materialised :meth:`~repro.dse.explorer.Explorer.explore`.
        space: the design space; never materialised.
        target_cpi: drop points whose predicted CPI exceeds this.
        chunk_size: design points priced per matrix product.
        top_k: optional hard cap on the held candidate set, keeping the
            best *k* by ``(cost, cpi)``.  A cap smaller than the true
            front trades exactness for memory; with ``None`` the front
            is bit-identical to :meth:`Explorer.explore`'s.
        obs: an :class:`~repro.obs.Observer`; when enabled, every chunk
            becomes a ``sweep.chunk`` span split into
            :data:`CHUNK_STAGES`, chunk timings land in the
            ``sweep.chunk_seconds`` histogram, the ``sweep.prune_inputs``
            counter counts the points that reach the exact prune, and
            progress lines are emitted.  The restriction is a
            ``sweep.restrict`` span (``stacks`` in the caller's model,
            ``stacks_priced`` after it) and a ``sweep.stacks_priced``
            gauge.  Defaults to the
            ambient observer — disabled instrumentation costs one flag
            check per chunk.
        progress_interval: seconds between progress lines (chunks done /
            points priced / current front size); defaults to
            :data:`DEFAULT_PROGRESS_INTERVAL`.  Progress requires an
            enabled observer.

    Returns:
        An :class:`ExplorationResult` whose candidates are the pruned
        front-reachable set, with ``meeting_target`` counting every
        point that met the target and ``metrics`` recording throughput,
        chunk timings and the peak candidate-set size.

    Raises:
        TypeError: *predictor* has no ``predict_cycles_matrix`` or no
            ``num_uops``.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1 (or None)")
    if not (
        hasattr(predictor, "predict_cycles_matrix")
        and getattr(predictor, "num_uops", None)
    ):
        raise TypeError(
            f"sweep_space prices through predict_cycles_matrix and "
            f"num_uops, which {type(predictor).__name__} lacks; "
            f"price it with Explorer.explore"
        )
    obs = obs if obs is not None else get_observer()
    total = space.num_points
    start = clock.perf_seconds()
    with obs.span("sweep.run", points=total, chunk_size=chunk_size):
        priced_model = predictor
        if isinstance(predictor, RpStacksModel):
            with obs.span(
                "sweep.restrict", stacks=predictor.num_paths
            ) as span:
                priced_model = predictor.restricted(*space.bounds())
                span.set(stacks_priced=priced_model.num_paths)
            obs.gauge("sweep.stacks_priced").set(priced_model.num_paths)
        state = _sweep_chunks(
            priced_model, space, chunk_size, target_cpi, top_k, obs,
            progress_interval,
        )
    elapsed = clock.perf_seconds() - start

    candidates = [
        Candidate(
            latency=space.point_at(int(index)),
            predicted_cpi=float(cpi),
            cost=float(cost),
        )
        for index, cpi, cost in zip(
            state["indices"], state["cpis"], state["costs"]
        )
    ]
    metrics = SweepMetrics.from_chunk_seconds(
        state["chunk_seconds"],
        num_points=total,
        total_seconds=elapsed,
        chunk_size=chunk_size,
        peak_candidates=state["peak"],
    )
    # The chunk loop counted sweep.points and sweep.chunk_seconds; the
    # run's totals land beside them.
    obs.counter("sweep.meeting_target").inc(state["meeting"])
    obs.gauge("sweep.peak_candidates").set(state["peak"])
    obs.gauge("sweep.points_per_sec").set(metrics.points_per_second)
    obs.gauge("prune.survivors").set(len(candidates))
    return ExplorationResult(
        candidates=candidates,
        num_points=total,
        target_cpi=target_cpi,
        meeting_target=state["meeting"],
        metrics=metrics,
    )
