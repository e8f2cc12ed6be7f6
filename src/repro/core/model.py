"""The RpStacks model: representative stacks plus the fast predictor.

A :class:`RpStacksModel` is the *output* of analysing one baseline
simulation: per dependence-graph segment, the reduced set of stall-event
stacks of that segment's representative execution paths.  Predicting the
execution time of any latency design point is then

    cycles(θ) = Σ over segments of max over stacks of (stack · θ)

— a handful of tiny dot products, independent of how many design points
are explored.  That O(1)-per-point evaluation is the paper's headline
mechanism (Figs 2b and 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.core.stack import StallEventStack


@dataclass
class GenerationStats:
    """Bookkeeping from one RpStacks generation run."""

    nodes_visited: int = 0
    candidate_stacks: int = 0
    reductions: int = 0
    #: wall-clock seconds spent in graph traversal + reduction
    analysis_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


class RpStacksModel:
    """Representative stall-event stacks of one (workload, structure).

    Args:
        segment_stacks: one ``(k_i, NUM_EVENTS)`` array per graph
            segment — the surviving representative path stacks.  Entries
            are unit counts: finite, non-negative integers.
        baseline: the latency configuration of the generating simulation.
        num_uops: µop count of the analysed stream (CPI normalisation).
        stats: generation bookkeeping (may be omitted in tests).

    Raises:
        ValueError: on an empty model or segment, a wrong width, or any
            entry that is not a finite, non-negative integer.  Pricing is
            exact in float64 only over integer counts, which is what
            makes batch prices bit-identical to per-point ones under any
            chunking and under :meth:`restricted`.
    """

    def __init__(
        self,
        segment_stacks: Sequence[np.ndarray],
        baseline: LatencyConfig,
        num_uops: int,
        stats: GenerationStats = None,
    ) -> None:
        if not segment_stacks:
            raise ValueError("a model needs at least one segment")
        for stacks in segment_stacks:
            if stacks.ndim != 2 or stacks.shape[1] != NUM_EVENTS:
                raise ValueError("each segment needs a (k, NUM_EVENTS) array")
            if stacks.shape[0] == 0:
                raise ValueError("segments cannot be empty")
        self.segment_stacks: Tuple[np.ndarray, ...] = tuple(
            np.asarray(s, dtype=np.float64) for s in segment_stacks
        )
        self.baseline = baseline
        self.num_uops = num_uops
        self.stats = stats or GenerationStats()

        # Flattened representation for batch evaluation.
        self._matrix = np.vstack(self.segment_stacks)
        matrix = self._matrix
        if not (
            np.isfinite(matrix).all()
            and (matrix >= 0).all()
            and (np.floor(matrix) == matrix).all()
        ):
            raise ValueError(
                "stack entries must be finite, non-negative integers"
            )
        boundaries = np.cumsum([s.shape[0] for s in self.segment_stacks])
        self._segment_starts = np.concatenate(([0], boundaries[:-1]))

    # ---- inspection ---------------------------------------------------

    @property
    def name(self) -> str:
        return "rpstacks"

    @property
    def num_segments(self) -> int:
        return len(self.segment_stacks)

    @property
    def num_paths(self) -> int:
        """Total representative paths across all segments."""
        return int(self._matrix.shape[0])

    def stacks(self, segment: int = 0) -> List[StallEventStack]:
        """Representative stacks of one segment, as value objects."""
        return [
            StallEventStack.from_vector(row)
            for row in self.segment_stacks[segment]
        ]

    def content_digest(self) -> str:
        """SHA-256 over every segment's stack array (shapes and bytes).

        Two models digest equal iff they hold byte-identical stacks in
        the same segment order — the equivalence the serial-vs-parallel
        generation differential asserts.
        """
        import hashlib

        digest = hashlib.sha256()
        for stacks in self.segment_stacks:
            digest.update(np.int64(stacks.shape[0]).tobytes())
            digest.update(np.ascontiguousarray(stacks).tobytes())
        return digest.hexdigest()

    # ---- prediction ---------------------------------------------------

    def predict_cycles(self, latency: LatencyConfig) -> float:
        """Predicted execution cycles under *latency*."""
        values = self._matrix @ latency.as_vector()
        maxima = np.maximum.reduceat(values, self._segment_starts)
        return float(maxima.sum())

    def predict_cpi(self, latency: LatencyConfig) -> float:
        """Predicted cycles per µop under *latency*."""
        return self.predict_cycles(latency) / self.num_uops

    def predict_many(
        self, latencies: Sequence[LatencyConfig]
    ) -> np.ndarray:
        """Vectorised prediction over many design points at once.

        This is the design-space-exploration fast path: one matrix
        product per segment prices its stacks under every configuration
        (:meth:`predict_cycles_matrix`).
        """
        if not len(latencies):
            return np.empty(0, dtype=np.float64)
        thetas = np.stack([lat.as_vector() for lat in latencies], axis=1)
        return self.predict_cycles_matrix(thetas)

    def predict_cycles_matrix(self, thetas: np.ndarray) -> np.ndarray:
        """Price a whole ``(NUM_EVENTS, n)`` pricing-vector chunk at once.

        This is the batch kernel behind :meth:`predict_many` and the
        streaming sweep engine: per segment, one matrix product prices
        the segment's stacks under every configuration and a column max
        picks the winner; the maxima are summed in segment order.  (A
        grouped ``maximum.reduceat`` over all paths at once is several
        times slower from a few hundred points up.)  All intermediates
        are integer-valued and well inside float64's exact range, so the
        result is bit-identical to per-point :meth:`predict_cycles`
        regardless of chunking.

        Args:
            thetas: ``(NUM_EVENTS, n)`` array, one pricing vector
                (:meth:`LatencyConfig.as_vector`) per column.

        Returns:
            ``(n,)`` predicted execution cycles.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[0] != NUM_EVENTS:
            raise ValueError(
                f"thetas must be (NUM_EVENTS, n); got {thetas.shape}"
            )
        cycles = np.zeros(thetas.shape[1], dtype=np.float64)
        if thetas.shape[1] == 0:
            return cycles
        for stacks in self.segment_stacks:
            cycles += (stacks @ thetas).max(axis=0)
        return cycles

    def restricted(self, lo: np.ndarray, hi: np.ndarray) -> "RpStacksModel":
        """This model cut down to the stacks that can win inside a box.

        In each segment, a stack is dropped when another stack of the
        segment prices at least as high at every point ``θ`` with
        ``lo <= θ <= hi``.  On a box the smallest margin of stack ``r``
        over stack ``q`` sits at a vertex, chosen event by event, so
        ``r`` covers ``q`` iff ``Σₑ min((r−q)ₑ·loₑ, (r−q)ₑ·hiₑ) >= 0``.
        Of stacks that price alike over the whole box the lowest index
        is kept (dropping the whole tie class would change prices).
        Segments left with one stack are summed into a single row.

        Counts and latencies are integers, so every margin is exact and
        the restricted model prices every point of the box bit-identically
        to this one.  ``num_uops`` and ``baseline`` carry over.  Each
        segment's test holds a ``k × k × NUM_EVENTS`` intermediate; the
        reduction caps ``k`` at its ``max_paths``.

        Args:
            lo, hi: ``(NUM_EVENTS,)`` pricing vectors bounding the box
                (:meth:`~repro.dse.designspace.DesignSpace.bounds`).
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != (NUM_EVENTS,) or hi.shape != (NUM_EVENTS,):
            raise ValueError("lo and hi must be (NUM_EVENTS,) vectors")
        if (lo > hi).any():
            raise ValueError("the box needs lo <= hi in every event")
        singles: List[np.ndarray] = []
        kept: List[np.ndarray] = []
        for stacks in self.segment_stacks:
            count = stacks.shape[0]
            if count > 1:
                diff = stacks[:, np.newaxis, :] - stacks[np.newaxis, :, :]
                # covers[r, q]: stack r prices >= stack q all over the box.
                covers = np.minimum(diff * lo, diff * hi).sum(axis=2) >= 0
                earlier = np.triu(np.ones((count, count), dtype=bool), 1)
                beaten = covers & (~covers.T | earlier)
                stacks = stacks[~beaten.any(axis=0)]
            (singles if stacks.shape[0] == 1 else kept).append(stacks)
        if singles:
            kept.insert(0, np.sum(singles, axis=0))
        return RpStacksModel(
            kept, baseline=self.baseline, num_uops=self.num_uops
        )

    def representative_stack(
        self, latency: LatencyConfig
    ) -> StallEventStack:
        """The stack describing execution under *latency*.

        Per segment, the critical (maximum-penalty) stack is selected
        and the per-segment winners are summed — this is the penalty
        decomposition an architect reads to identify bottlenecks, and it
        shifts as latencies change (Fig 6's per-design stacks).
        """
        theta = latency.as_vector()
        total = np.zeros(NUM_EVENTS)
        for stacks in self.segment_stacks:
            winner = int(np.argmax(stacks @ theta))
            total += stacks[winner]
        return StallEventStack.from_vector(total)

    def sensitivity(self, latency: LatencyConfig) -> Dict:
        """Analytic CPI gradient: d(CPI)/d(latency) per event.

        The prediction is, per segment, a max of linear functions of θ;
        wherever the winner is unique the derivative w.r.t. one event's
        latency is simply the winning stack's unit count for that event.
        Summed over segments and normalised by µops, this tells an
        architect how much CPI one cycle on each event is worth *at this
        design point* — the local version of the exploration question.
        """
        from repro.common.events import EventType

        theta = latency.as_vector()
        gradient = np.zeros(NUM_EVENTS)
        for stacks in self.segment_stacks:
            winner = int(np.argmax(stacks @ theta))
            gradient += stacks[winner]
        return {
            EventType(i): float(gradient[i]) / self.num_uops
            for i in range(NUM_EVENTS)
            if gradient[i] > 0
        }

    def segment_bottlenecks(
        self, latency: LatencyConfig
    ) -> List[Tuple[int, str, float]]:
        """Per-segment dominant stall event under *latency*.

        Returns ``(segment_index, event_label, cycles_share)`` rows,
        where the share is the event's fraction of the segment's winning
        stack.  On phased workloads this is a bottleneck *timeline*: the
        dominant event shifts at phase boundaries.
        """
        from repro.common.events import EventType, event_label

        theta = latency.as_vector()
        rows: List[Tuple[int, str, float]] = []
        for index, stacks in enumerate(self.segment_stacks):
            values = stacks @ theta
            winner = stacks[int(np.argmax(values))]
            contributions = winner * theta
            total = float(contributions.sum())
            best_event = int(np.argmax(contributions))
            share = (
                float(contributions[best_event]) / total if total else 0.0
            )
            rows.append(
                (index, event_label(EventType(best_event)), share)
            )
        return rows

    def explain_change(
        self, before: LatencyConfig, after: LatencyConfig
    ) -> Dict:
        """Per-event CPI deltas between two design points.

        Compares the penalty decompositions of the representative stacks
        each configuration elects.  Negative values are cycles saved on
        that event; a *positive* entry for an event whose latency did not
        change is the signature of a newly exposed hidden path (the
        winner switched to a stack richer in that event).
        """
        from repro.common.events import EventType

        pen_before = self.representative_stack(before).penalties(before)
        pen_after = self.representative_stack(after).penalties(after)
        deltas: Dict[EventType, float] = {}
        for event in set(pen_before) | set(pen_after):
            delta = pen_after.get(event, 0.0) - pen_before.get(event, 0.0)
            if delta:
                deltas[event] = delta / self.num_uops
        return deltas

    def bottlenecks(
        self, latency: LatencyConfig, top: int = 3
    ) -> List[Tuple[str, float]]:
        """The *top* penalty components under *latency*, as CPI shares."""
        from repro.common.events import event_label

        stack = self.representative_stack(latency)
        penalties = stack.penalties(latency)
        ranked = sorted(penalties.items(), key=lambda item: -item[1])
        return [
            (event_label(event), value / self.num_uops)
            for event, value in ranked[:top]
        ]
