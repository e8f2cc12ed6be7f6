"""Dynamic trace records — the simulator/analysis interface (Fig 8b).

The paper's modified MARSSx86 logs, per micro-op: the macro-op boundary
(SoM/EoM), data dependencies, pipeline timings, and penalty-event
occurrences.  :class:`UopTrace` carries exactly that, plus the structural
dependency *witnesses* (which earlier µop freed my IQ slot / physical
register / store-order barrier) that the dependence-graph builder turns
into Table I edges.

Crucially, everything except the timestamps is **latency-invariant**:
dependencies, cache/TLB hit levels and branch outcomes are fixed by the
deterministic workload replay, so a graph built from one baseline trace
can be re-priced for any latency design point.

A :class:`SimResult` holds its trace in one form, the columns of
:class:`repro.simulator.columns.TraceColumns`.  :class:`UopTrace`
records are the Python pre-pass's working form and a read-only view of
a result's columns for the reference graph builder and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import MicroarchConfig
from repro.common.events import EventType
from repro.isa.uop import Workload
from repro.simulator.caches import AccessLevel

#: Sparse event charge: ((event, units), ...).
EventCharge = Tuple[Tuple[EventType, int], ...]


def data_access_charge(level: AccessLevel, dtlb_miss: bool) -> EventCharge:
    """Stall events charged by a load that was serviced at *level*.

    The access chain is cumulative: an L2 hit pays the L1 lookup plus the
    L2 access; a memory access additionally pays ``MEM_D``.  The DTLB
    page-walk penalty is charged on the graph's AR2->DTLB edge and is
    returned separately by the builder, not included here.
    """
    charge = [(EventType.L1D, 1)]
    if level >= AccessLevel.L2:
        charge.append((EventType.L2D, 1))
    if level >= AccessLevel.MEMORY:
        charge.append((EventType.MEM_D, 1))
    return tuple(charge)


def fetch_access_charge(level: AccessLevel, itlb_miss: bool) -> EventCharge:
    """Stall events charged by an instruction-line fetch at *level*."""
    charge = []
    if itlb_miss:
        charge.append((EventType.ITLB, 1))
    charge.append((EventType.L1I, 1))
    if level >= AccessLevel.L2:
        charge.append((EventType.L2I, 1))
    if level >= AccessLevel.MEMORY:
        charge.append((EventType.MEM_I, 1))
    return tuple(charge)


@dataclass
class UopTrace:
    """Per-micro-op dynamic trace record.

    Dependency witnesses hold the *sequence number* of the earlier µop
    that satisfied a structural constraint, or ``-1`` when the constraint
    never bound (e.g. the IQ never filled up for this µop).

    Attributes:
        exec_charge: events charged between issue (E) and completion (P) —
            the FU latency, and for loads the cache access chain.
        fetch_charge: events charged on this µop's F->ITLB->I$ path; only
            the µop that opens a new instruction cache line carries a
            non-empty charge (line-granular blocking fetch).
        dtlb_miss: loads/stores that missed the DTLB (charged AR2->DTLB).
        mispredicted: this is a branch whose prediction was wrong.
        data_producers: seqs of the µops producing each data source
            register (same order as ``uop.src_regs``); -1 if the register
            had no in-stream producer.
        addr_producers: same for address source registers.
        store_barrier: seq of the last prior store, for loads (-1 if none).
        line_sharer: seq of an earlier load whose in-flight fill this load
            merged with (-1 if none).
        phys_reg_freer: seq whose commit freed the physical register this
            µop allocated while the free list was empty (-1 otherwise).
        iq_freer: seq whose issue freed this µop's issue-queue slot after
            a full-IQ dispatch stall (-1 otherwise).
    """

    seq: int
    exec_charge: EventCharge = ()
    fetch_charge: EventCharge = ()
    dtlb_miss: bool = False
    mispredicted: bool = False
    data_producers: Tuple[int, ...] = ()
    addr_producers: Tuple[int, ...] = ()
    store_barrier: int = -1
    line_sharer: int = -1
    phys_reg_freer: int = -1
    iq_freer: int = -1
    # Pipeline timestamps (cycles), filled by the simulator.
    t_fetch: int = 0
    t_rename: int = 0
    t_dispatch: int = 0
    t_ready: int = 0
    t_issue: int = 0
    t_complete: int = 0
    t_commit: int = 0


class SimResult:
    """Outcome of one timing simulation run.

    The trace is held in columnar form only
    (:class:`repro.simulator.columns.TraceColumns`), whichever simulator
    produced it.  :attr:`uops` is a read-only :class:`UopTrace` view of
    those columns, built on first touch for the reference graph builder
    and for tests; no production path reads it.

    Attributes:
        workload: the simulated stream.
        config: the design point simulated.
        cycles: total execution cycles (commit time of the last µop).
        columns: struct-of-arrays trace.
        stats: flat counters (cache/TLB/branch statistics), canonicalised
            to ``str`` keys and ``int`` values at construction so digests
            and archives never depend on numpy scalar types.
    """

    __slots__ = ("workload", "config", "cycles", "columns", "stats", "_uops")

    def __init__(
        self,
        workload: Workload,
        config: MicroarchConfig,
        cycles: int,
        columns,
        stats: Optional[Dict[str, int]] = None,
    ):
        self.workload = workload
        self.config = config
        self.cycles = int(cycles)
        self.columns = columns
        self.stats: Dict[str, int] = {
            str(key): int(value) for key, value in (stats or {}).items()
        }
        self._uops: Optional[Tuple[UopTrace, ...]] = None

    @property
    def uops(self) -> Tuple[UopTrace, ...]:
        """Per-µop records, materialised from the columns on first touch."""
        if self._uops is None:
            self._uops = tuple(self.columns.to_records())
        return self._uops

    def __getstate__(self):
        # Ship the columns only; the record view is rebuilt on demand.
        return {
            "workload": self.workload,
            "config": self.config,
            "cycles": self.cycles,
            "columns": self.columns,
            "stats": self.stats,
        }

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._uops = None

    @property
    def num_uops(self) -> int:
        return self.columns.n

    @property
    def cpi(self) -> float:
        """Cycles per micro-op (the paper's CPI, at µop granularity)."""
        return self.cycles / max(1, self.num_uops)

    def describe(self) -> str:
        return (
            f"{self.workload.name}: {self.num_uops} uops, "
            f"{self.cycles} cycles, CPI={self.cpi:.3f}"
        )
