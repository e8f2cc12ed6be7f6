"""Design-space exploration engine (Fig 6a's workflow).

Given a predictor and a :class:`~repro.dse.designspace.DesignSpace`, the
explorer prices every point, filters by a target CPI, attaches an
optimisation-cost estimate, and returns the Pareto-optimal candidates —
the "compare the selected designs to finalize the decision" step of the
paper's scenario.  With an :class:`~repro.core.model.RpStacksModel` the
whole sweep is one matrix product per segment (``predict_many``).

:meth:`Explorer.explore` materialises every point and is the reference
for any predictor and any cost model; the streaming fast path for large
spaces, which needs the model's matrix kernel and the default costs, is
:func:`repro.dse.sweep.sweep_space`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import LATENCY_DOMAIN, EventType
from repro.dse.designspace import DesignSpace
from repro.obs.metrics import Histogram


def default_cost_model(
    point: LatencyConfig, base: LatencyConfig
) -> float:
    """Optimisation cost of reaching *point* from *base*.

    Shrinking an event's latency costs effort proportional to the
    *relative* speed-up demanded (halving any unit costs 1.0); relaxing a
    latency is free.  This is the kind of per-latency cost factor the
    paper says RpStacks "can incorporate without extra overhead".

    A zero-cycle target is priced as a further halving beyond one cycle
    (effective latency 0.5), keeping the cost strictly monotone as
    ``new`` shrinks toward zero instead of flattening at the 1-cycle
    price.
    """
    cost = 0.0
    for event in LATENCY_DOMAIN:
        old = base[event]
        new = point[event]
        if new < old and old > 0:
            cost += old / (new if new > 0 else 0.5) - 1.0
    return cost


def _cost_terms(old: float, values: np.ndarray) -> np.ndarray:
    """:func:`default_cost_model`'s term for each latency in *values*.

    The scalar rule applied elementwise to one event's candidate
    latencies: ``old / new - 1.0`` where *new* lowers a positive *old*
    (zero priced as 0.5), ``0.0`` elsewhere.  Same operations, same
    bits.
    """
    values = np.asarray(values, dtype=np.float64)
    if old <= 0:
        return np.zeros(values.shape)
    effective = np.where(values > 0, values, 0.5)
    return np.where(values < old, old / effective - 1.0, 0.0)


def default_cost_tables(
    space: DesignSpace,
) -> List[Tuple[EventType, np.ndarray]]:
    """:func:`default_cost_model` as one term table per swept axis.

    Returns ``(event, terms)`` pairs in ``LATENCY_DOMAIN`` order, one
    entry per value of the event's axis, for
    :meth:`DesignSpace.sum_axis_tables`.  Adding them in that order
    from ``0.0`` repeats the scalar model's additions point by point, so
    every cost is bit-identical to it.  Unswept events sit at base and
    add nothing; an axis that never lowers its event is left out, since
    its terms would all add ``+0.0``.
    """
    swept = dict(space.axes)
    tables = []
    for event in LATENCY_DOMAIN:
        if event not in swept:
            continue
        terms = _cost_terms(space.base[event], swept[event])
        if terms.any():
            tables.append((event, terms))
    return tables


@dataclass(frozen=True)
class Candidate:
    """One explored design point with its prediction and cost."""

    latency: LatencyConfig
    predicted_cpi: float
    cost: float

    def describe(self) -> str:
        return (
            f"CPI={self.predicted_cpi:.3f} cost={self.cost:.2f} "
            f"({self.latency.describe()})"
        )

    def as_dict(self) -> dict:
        """JSON-serialisable representation (event names -> cycles)."""
        return {
            "latency": {
                event.name: self.latency[event]
                for event in LATENCY_DOMAIN
            },
            "predicted_cpi": self.predicted_cpi,
            "cost": self.cost,
        }


@dataclass
class SweepMetrics:
    """Instrumentation of one streaming sweep run.

    Built from the sweep's chunk timings (:meth:`from_chunk_seconds`),
    and kept as a dataclass so CLI/JSON consumers have a stable schema.
    """

    #: design points priced end to end
    num_points: int = 0
    #: wall-clock seconds for the whole sweep
    total_seconds: float = 0.0
    #: points priced per wall-clock second
    points_per_second: float = 0.0
    #: chunks evaluated
    num_chunks: int = 0
    #: slowest single-chunk evaluation, seconds
    max_chunk_seconds: float = 0.0
    #: mean single-chunk evaluation, seconds
    mean_chunk_seconds: float = 0.0
    #: largest candidate set held at any point (the memory bound)
    peak_candidates: int = 0
    #: points per evaluation chunk
    chunk_size: int = 0
    #: 95th-percentile single-chunk evaluation, seconds
    p95_chunk_seconds: float = 0.0
    #: trailing-window throughput (last few chunks) — what the
    #: ``--progress`` lines report; at completion, the end-of-run rate
    rolling_points_per_second: float = 0.0

    @classmethod
    def from_chunk_seconds(
        cls,
        chunk_seconds: Sequence[float],
        *,
        num_points: int,
        total_seconds: float,
        chunk_size: int,
        peak_candidates: int,
    ) -> "SweepMetrics":
        """The run's figures from its per-chunk seconds, in chunk order.

        The percentile is :class:`~repro.obs.metrics.Histogram`'s
        linearly interpolated one.  The trailing-window rate assumes
        full chunks of *chunk_size* points (the final partial chunk
        slightly understates it, acceptable for an ETA signal).
        """
        chunks = Histogram("sweep.chunk_seconds")
        for seconds in chunk_seconds:
            chunks.observe(seconds)
        window = chunks.values[-8:]
        window_seconds = sum(window)
        rolling = (
            len(window) * chunk_size / window_seconds
            if window_seconds > 0 and chunk_size > 0
            else 0.0
        )
        return cls(
            num_points=num_points,
            total_seconds=total_seconds,
            points_per_second=(
                num_points / total_seconds
                if total_seconds > 0
                else float("inf")
            ),
            num_chunks=chunks.count,
            max_chunk_seconds=chunks.max,
            mean_chunk_seconds=chunks.mean,
            p95_chunk_seconds=chunks.percentile(95.0),
            peak_candidates=peak_candidates,
            chunk_size=chunk_size,
            rolling_points_per_second=rolling,
        )

    def describe(self) -> str:
        return (
            f"{self.num_points} points in {self.total_seconds:.3f}s "
            f"({self.points_per_second:,.0f} points/s, "
            f"{self.num_chunks} chunk(s) of {self.chunk_size}, "
            f"peak {self.peak_candidates} candidates)"
        )


@dataclass
class ExplorationResult:
    """Outcome of one design-space sweep."""

    candidates: List[Candidate]
    num_points: int
    target_cpi: Optional[float]
    #: candidate count override for streaming sweeps, which count points
    #: meeting the target without materialising them all
    meeting_target: Optional[int] = None
    #: streaming-sweep instrumentation (None for materialised sweeps)
    metrics: Optional[SweepMetrics] = None

    @property
    def num_meeting_target(self) -> int:
        if self.meeting_target is not None:
            return self.meeting_target
        return len(self.candidates)

    def pareto_front(self) -> List[Candidate]:
        """Cost/CPI Pareto-optimal candidates, sorted by cost."""
        ordered = sorted(
            self.candidates, key=lambda c: (c.cost, c.predicted_cpi)
        )
        front: List[Candidate] = []
        best_cpi = float("inf")
        for candidate in ordered:
            if candidate.predicted_cpi < best_cpi - 1e-12:
                front.append(candidate)
                best_cpi = candidate.predicted_cpi
        return front

    def best(self) -> Candidate:
        """Cheapest candidate (ties by CPI)."""
        if not self.candidates:
            raise ValueError("no candidate met the target")
        return min(self.candidates, key=lambda c: (c.cost, c.predicted_cpi))

    def as_dict(self) -> dict:
        """JSON-serialisable summary: counts, target, Pareto front."""
        summary = {
            "num_points": self.num_points,
            "target_cpi": self.target_cpi,
            "num_meeting_target": self.num_meeting_target,
            "pareto_front": [c.as_dict() for c in self.pareto_front()],
        }
        if self.metrics is not None:
            import dataclasses

            summary["metrics"] = dataclasses.asdict(self.metrics)
        return summary


class Explorer:
    """Sweeps a design space with any predictor.

    Args:
        predictor: anything with ``predict_cpi(LatencyConfig)``; when it
            also provides ``predict_many`` (the RpStacks model), the sweep
            is vectorised.
        cost_model: callable ``(point, base) -> cost``; defaults to
            :func:`default_cost_model`.
    """

    def __init__(
        self,
        predictor,
        cost_model: Callable[[LatencyConfig, LatencyConfig], float] = None,
    ) -> None:
        self.predictor = predictor
        self.cost_model = cost_model or default_cost_model

    def explore(
        self,
        space: DesignSpace,
        target_cpi: Optional[float] = None,
    ) -> ExplorationResult:
        """Price every point of *space*; keep those meeting *target_cpi*."""
        points = space.points()
        cpis = self._predict_all(points)
        candidates = []
        for point, cpi in zip(points, cpis):
            if target_cpi is not None and cpi > target_cpi:
                continue
            candidates.append(
                Candidate(
                    latency=point,
                    predicted_cpi=float(cpi),
                    cost=self.cost_model(point, space.base),
                )
            )
        return ExplorationResult(
            candidates=candidates,
            num_points=len(points),
            target_cpi=target_cpi,
        )

    def _predict_all(self, points: Sequence[LatencyConfig]) -> np.ndarray:
        predict_many = getattr(self.predictor, "predict_many", None)
        num_uops = getattr(self.predictor, "num_uops", None)
        if predict_many is not None and num_uops:
            cycles = predict_many(points)
            return np.asarray(cycles) / num_uops
        return np.array([self.predictor.predict_cpi(p) for p in points])
