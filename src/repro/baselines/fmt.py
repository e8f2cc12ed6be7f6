"""Pipeline-stall analysis baseline: the Frontend Miss Table (FMT).

Eyerman et al.'s FMT is a performance-counter architecture that builds a
CPI stack by attributing each cycle in which the pipeline makes no
forward progress to *one* miss event.  The paper implements FMT on its
simulator as the pipeline-stall-analysis baseline (Section V-A); we do
the same as a post-processing pass over the timing trace:

* a cycle in which at least one µop commits is a **base** cycle;
* a stall cycle with the ROB head in flight is attributed to the head's
  dominant pending event (its largest-penalty stall event — a memory
  access level, a long FU latency, a DTLB walk);
* a stall cycle with an empty/starved ROB head is attributed to the
  front end: the branch-misprediction redirect or the I-cache/ITLB miss
  chain blocking fetch.

Prediction scales each non-base component by the latency ratio of its
event.  The two documented FMT weaknesses fall out of this construction,
exactly as the paper argues (Section II-C): concurrent events are
charged to a single winner (overlap blindness), and low-rate stalls that
never fully block commit are folded into base cycles.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import EventType
from repro.simulator.trace import SimResult


def _costliest(indptr, events, units, theta, skip_base=False):
    """Per-µop ``(event, cost)`` of the first costliest charged event.

    The vector form of a ``cost > best`` scan over each µop's charge in
    order, starting from ``(BASE, 0)``: ties go to the earlier event,
    and a µop whose every cost is 0 keeps BASE.
    """
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    cost = units.astype(np.int64) * theta[events]
    if skip_base:
        cost[events == EventType.BASE] = 0
    best_cost = np.zeros(n, np.int64)
    np.maximum.at(best_cost, rows, cost)
    hits = np.flatnonzero((cost > 0) & (cost == best_cost[rows]))
    hit_rows, first = np.unique(rows[hits], return_index=True)
    best_event = np.full(n, int(EventType.BASE), np.int64)
    best_event[hit_rows] = events[hits[first]]
    return best_event, best_cost


def _blame_tables(result: SimResult, theta):
    """Per-µop blame when it heads the ROB: in flight, and starved.

    In flight, FMT blames the µop's dominant pending event (its
    costliest non-base execution event, or the DTLB walk if that costs
    more).  Starved, it blames the front end: the mispredicted branch
    before the µop, its own misprediction, or its costliest fetch event.
    """
    tc = result.columns
    exec_event, exec_cost = _costliest(
        tc.exec_indptr, tc.exec_events, tc.exec_units, theta, skip_base=True
    )
    dominant = np.where(
        tc.dtlb_miss & (theta[EventType.DTLB] > exec_cost),
        int(EventType.DTLB),
        exec_event,
    )
    fetch_event, _ = _costliest(
        tc.fetch_indptr, tc.fetch_events, tc.fetch_units, theta
    )
    after_misprediction = np.zeros(tc.n, bool)
    after_misprediction[1:] = tc.mispredicted[:-1]
    starved = np.where(
        after_misprediction | tc.mispredicted,
        int(EventType.BR_MISP),
        fetch_event,
    )
    return dominant, starved


class FMTPredictor:
    """CPI-stack predictor built from commit-stall attribution."""

    name = "fmt"

    def __init__(self, result: SimResult) -> None:
        self.baseline = result.config.latency
        self.num_uops = result.num_uops
        self.baseline_cycles = result.cycles
        self.components = self._build_stack(result)

    def _build_stack(self, result: SimResult) -> Dict[EventType, float]:
        theta = np.asarray(result.config.latency.cycles, np.int64)
        total_cycles = result.cycles
        tc = result.columns
        n = tc.n

        # Attribution covers cycles 1..T, T the last commit.  A cycle in
        # which some µop commits is a base cycle; any other cycle is a
        # stall blamed on the ROB head, the oldest uncommitted µop
        # (commit is in order, so t_commit is sorted and the head is a
        # binary search away).
        last = min(total_cycles, int(tc.t_commit[-1])) if n else 0
        commits = np.bincount(
            np.minimum(tc.t_commit, last + 1), minlength=last + 2
        )[1 : last + 1]
        stalls = np.flatnonzero(commits == 0) + 1
        heads = np.searchsorted(tc.t_commit, stalls, side="right")
        base_cycles = int(np.count_nonzero(commits))

        # The blame is fixed at the first stall cycle of each head.
        first = np.ones(len(heads), bool)
        first[1:] = heads[1:] != heads[:-1]
        head = heads[first]
        cycle = stalls[first]
        renamed = tc.t_rename[head]
        completed = tc.t_complete[head]
        in_window = (renamed != -1) & (renamed <= cycle)
        # A completed head is held by the macro-op commit gate: blame
        # the last µop of its macro-op instead.
        macro_id = result.workload.columns.macro_id
        macro_ends = np.flatnonzero(
            np.append(macro_id[1:] != macro_id[:-1], True)
        )
        gated = in_window & (completed != -1) & (completed <= cycle)
        blamed = np.where(
            gated, macro_ends[np.searchsorted(macro_ends, head)], head
        )
        dominant, starved = _blame_tables(result, theta)
        blame = np.where(in_window, dominant[blamed], starved[head])
        blame = blame[np.cumsum(first) - 1]

        # Events enter the stack in order of their first stall cycle.
        components: Dict[EventType, float] = {
            EventType.BASE: float(base_cycles)
        }
        events, first_stall, counts = np.unique(
            blame, return_index=True, return_counts=True
        )
        for index in np.argsort(first_stall):
            event = EventType(int(events[index]))
            components[event] = components.get(event, 0.0) + float(
                counts[index]
            )
        return components

    # ------------------------------------------------------------------

    def cpi_stack(self) -> Dict[EventType, float]:
        """Baseline CPI stack (components sum to the baseline CPI)."""
        return {
            event: cycles / self.num_uops
            for event, cycles in self.components.items()
            if cycles > 0
        }

    def predict_cycles(self, latency: LatencyConfig) -> float:
        """Scale each stall component by its event's latency ratio."""
        base_theta = self.baseline.cycles
        new_theta = latency.cycles
        total = 0.0
        for event, cycles in self.components.items():
            if event is EventType.BASE or base_theta[event] == 0:
                total += cycles
            else:
                total += cycles * new_theta[event] / base_theta[event]
        return total

    def predict_cpi(self, latency: LatencyConfig) -> float:
        return self.predict_cycles(latency) / self.num_uops
