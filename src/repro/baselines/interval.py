"""First-order mechanistic interval model (Karkhanis & Smith / Eyerman).

The paper's related work (Section VI) singles out mechanistic analytic
models: instruction flow is ideal (dispatch-width-limited) except where
*miss events* interrupt it, and total cycles are the ideal time plus a
per-event penalty for each miss interval.  This implements the classic
first-order model from trace statistics alone:

    cycles = N / D                              (ideal dispatch)
           + #mispredictions x (redirect + refill)
           + #I$ misses x their latency          (front-end stalls)
           + #long-latency loads x exposed latency / MLP

where the memory term divides by the measured memory-level parallelism
(overlapping long misses are the interval model's signature refinement),
and short-latency back-end events are assumed hidden by out-of-order
execution — the model's documented blind spot for the dependence-chain
bottlenecks (FP chains, L1-resident pointer chasing) that RpStacks, CP1
and the graph model all capture.

Prediction for a new latency configuration re-prices each term; like
FMT, the model has a *fixed decomposition*, so it cannot see interactions
or hidden paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import EventType
from repro.simulator.trace import SimResult


@dataclass
class IntervalStatistics:
    """Trace statistics the first-order model consumes."""

    num_uops: int
    dispatch_width: int
    mispredictions: int
    icache_units: Dict[EventType, int]
    #: counts of long data-access units (L2D / MEM_D / DTLB)
    memory_units: Dict[EventType, int]
    #: measured long-miss MLP (overlapping misses per serialised miss)
    memory_parallelism: float


def _unit_totals(events, units, keys) -> Dict[EventType, int]:
    """Summed units of each event in *keys*, keyed in first-occurrence
    order (the order a row-by-row accumulation inserts them)."""
    found = []
    for event in keys:
        hits = np.flatnonzero(events == event)
        if len(hits):
            found.append((hits[0], event, int(units[hits].sum())))
    return {event: total for _first, event, total in sorted(found)}


def collect_statistics(result: SimResult) -> IntervalStatistics:
    """Extract the interval model's inputs from one simulation trace."""
    tc = result.columns
    icache_units = _unit_totals(
        tc.fetch_events,
        tc.fetch_units,
        (EventType.L2I, EventType.MEM_I, EventType.ITLB),
    )
    # A µop contributes its long execution events, then one DTLB unit
    # if it missed the DTLB (execution charges never hold DTLB): splice
    # those units in after each missing µop's charge.
    dtlb_at = tc.exec_indptr[1:][tc.dtlb_miss]
    memory_units = _unit_totals(
        np.insert(tc.exec_events, dtlb_at, int(EventType.DTLB)),
        np.insert(tc.exec_units, dtlb_at, 1),
        (EventType.L2D, EventType.MEM_D, EventType.DTLB),
    )

    # Measure long-miss MLP from the trace: group long loads by
    # overlapping [issue, complete) windows and compare summed latency
    # against the span actually covered.
    exec_rows = np.repeat(np.arange(tc.n), np.diff(tc.exec_indptr))
    long_entry = (tc.exec_events == EventType.L2D) | (
        tc.exec_events == EventType.MEM_D
    )
    is_long = np.zeros(tc.n, bool)
    is_long[exec_rows[long_entry]] = True
    long_windows = sorted(
        zip(tc.t_issue[is_long].tolist(), tc.t_complete[is_long].tolist())
    )
    if long_windows:
        total_latency = sum(stop - start for start, stop in long_windows)
        covered = 0
        span_start, span_stop = long_windows[0]
        for start, stop in long_windows[1:]:
            if start <= span_stop:
                span_stop = max(span_stop, stop)
            else:
                covered += span_stop - span_start
                span_start, span_stop = start, stop
        covered += span_stop - span_start
        parallelism = max(1.0, total_latency / max(1, covered))
    else:
        parallelism = 1.0

    return IntervalStatistics(
        num_uops=result.num_uops,
        dispatch_width=result.config.core.dispatch_width,
        mispredictions=int(np.count_nonzero(tc.mispredicted)),
        icache_units=icache_units,
        memory_units=memory_units,
        memory_parallelism=parallelism,
    )


class IntervalModelPredictor:
    """First-order interval-analysis predictor from one trace."""

    name = "interval"

    #: pipeline refill cost added to each redirect, in dispatch groups
    REFILL_GROUPS = 4

    def __init__(self, result: SimResult) -> None:
        self.stats = collect_statistics(result)
        self.baseline = result.config.latency
        self.num_uops = result.num_uops

    def predict_cycles(self, latency: LatencyConfig) -> float:
        stats = self.stats
        ideal = stats.num_uops / stats.dispatch_width
        branch_term = stats.mispredictions * (
            latency[EventType.BR_MISP] + self.REFILL_GROUPS
        )
        frontend_term = sum(
            units * latency[event]
            for event, units in stats.icache_units.items()
        )
        memory_term = (
            sum(
                units * latency[event]
                for event, units in stats.memory_units.items()
            )
            / stats.memory_parallelism
        )
        return ideal + branch_term + frontend_term + memory_term

    def predict_cpi(self, latency: LatencyConfig) -> float:
        return self.predict_cycles(latency) / self.num_uops

    def cpi_stack(self) -> Dict[str, float]:
        """The model's fixed decomposition at the baseline (per µop)."""
        stats = self.stats
        base = self.baseline
        return {
            "base": 1.0 / stats.dispatch_width,
            "branch": stats.mispredictions
            * (base[EventType.BR_MISP] + self.REFILL_GROUPS)
            / stats.num_uops,
            "frontend": sum(
                units * base[event]
                for event, units in stats.icache_units.items()
            )
            / stats.num_uops,
            "memory": sum(
                units * base[event]
                for event, units in stats.memory_units.items()
            )
            / stats.memory_parallelism
            / stats.num_uops,
        }
