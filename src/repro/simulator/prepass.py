"""Program-order functional pre-pass.

Everything about a run except pipeline *timing* is decided here, in
program order, before the cycle-accurate loop runs:

* cache / TLB service levels for every instruction line and data access,
* branch predictions (the predictor is consulted in fetch = program order),
* register data/address dependencies (rename-map walk),
* store-ordering barriers and cache-line fill sharing witnesses,
* physical-register bookkeeping metadata.

Doing this in program order makes every penalty event **latency
invariant**: re-simulating the same workload under a different latency
configuration replays byte-identical events, which is the founding
assumption of single-simulation design space exploration (the paper's
modified MARSSx86 relies on the same property by replaying one trace).
The timing loop (``repro.simulator.core``) then only assigns cycles.

This module is the executable specification of the pass.
``repro.simulator.native`` compiles a bit-identical twin whose packed
outcome only the compiled timing loop prices; a :class:`PrepassResult`
from here is only priced by :class:`~repro.simulator.core.TimingSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.common.config import MicroarchConfig
from repro.common.events import EventType
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.simulator.branch import make_predictor
from repro.simulator.caches import AccessLevel, MemoryHierarchy
from repro.simulator.tlb import TLB
from repro.simulator.trace import (
    UopTrace,
    data_access_charge,
    fetch_access_charge,
)

#: Window (in µops) within which a load can merge with an earlier miss's
#: in-flight line fill (an MSHR-like capacity bound).
LINE_SHARE_WINDOW = 64


@dataclass
class PrepassResult:
    """Static (latency-invariant) facts about one run.

    Attributes:
        records: per-µop trace records with all non-timing fields filled
            (timestamps zero, structural witnesses -1).  Timing runs
            never write to them, so one pre-pass serves every latency
            point of a :class:`~repro.simulator.machine.Machine`.
        frees_reg_on_commit: µops whose commit returns a physical register
            to the free list (their destination had an earlier writer).
        needs_phys_reg: µops that allocate a physical register at rename.
        macro_last_uop: for each µop, the seq of the last µop of its
            macro-op (used for the SoM commit gate).
        stats: functional counters (cache hits/misses, mispredictions).
    """

    records: List[UopTrace]
    frees_reg_on_commit: List[bool]
    needs_phys_reg: List[bool]
    macro_last_uop: List[int]
    stats: Dict[str, int]


def _declared_footprint(workload: Workload, key: str) -> Optional[int]:
    """Read the generator-declared footprint (bytes) from workload params."""
    for name, value in workload.params:
        if name == key:
            return int(value)
    return None


def _observed_footprint(workload: Workload, data_side: bool) -> int:
    """Fallback footprint estimate: distinct 64-byte lines in the stream."""
    columns = workload.columns
    if data_side:
        addresses = columns.mem_addr[columns.mem_addr >= 0]
    else:
        addresses = columns.pc
    return 64 * len(np.unique(addresses >> 6))


def _warm_structures(
    workload: Workload,
    hierarchy: MemoryHierarchy,
    itlb: TLB,
    dtlb: TLB,
    predictor,
) -> None:
    """Warm caches/TLBs to their *steady-state* residency.

    Our dynamic streams are short samples of a notionally much longer
    execution (the paper measures 1M-instruction SimPoints after
    warm-up).  A short sample touches so few distinct lines that naively
    replaying it would make every structure hit regardless of the
    workload's true footprint.  We therefore warm a level only when the
    workload's steady-state footprint (declared by the generator via
    ``working_set_bytes`` / ``code_footprint_bytes``, or estimated from
    the stream) *fits* that level — at steady state a larger-than-cache
    footprint implies reuse distances exceeding capacity, i.e. misses.
    """
    from repro.workloads.phased import (
        CODE_REGION_BYTES,
        DATA_REGION_BYTES,
    )

    default_data_fp = _declared_footprint(workload, "working_set_bytes")
    if default_data_fp is None:
        default_data_fp = _observed_footprint(workload, data_side=True)
    default_code_fp = _declared_footprint(workload, "code_footprint_bytes")
    if default_code_fp is None:
        default_code_fp = _observed_footprint(workload, data_side=False)

    # Phased workloads relocate each phase into its own address region
    # and declare per-phase footprints; residency is decided per region.
    params = dict(workload.params)
    phase_data_fps = params.get("phase_data_footprints")
    phase_code_fps = params.get("phase_code_footprints")
    data_region_base = (
        min(u.mem_addr for u in workload if u.mem_addr is not None)
        // DATA_REGION_BYTES
        if phase_data_fps
        else 0
    )

    def data_footprint(addr: int) -> int:
        if not phase_data_fps:
            return default_data_fp
        region = addr // DATA_REGION_BYTES - data_region_base
        if 0 <= region < len(phase_data_fps):
            return phase_data_fps[region]
        return default_data_fp

    def code_footprint(pc: int) -> int:
        if not phase_code_fps:
            return default_code_fp
        region = pc // CODE_REGION_BYTES
        if 0 <= region < len(phase_code_fps):
            return phase_code_fps[region]
        return default_code_fp

    l1d_bytes = hierarchy.l1d.config.size_bytes
    l1i_bytes = hierarchy.l1i.config.size_bytes
    l2_bytes = hierarchy.l2.config.size_bytes
    dtlb_reach = dtlb.config.entries * dtlb.config.page_bytes
    itlb_reach = itlb.config.entries * itlb.config.page_bytes

    previous_line: Optional[int] = None
    for uop in workload:
        line = hierarchy.l1i.line_of(uop.pc)
        if line != previous_line:
            code_fp = code_footprint(uop.pc)
            if code_fp <= itlb_reach:
                itlb.warm(uop.pc)
            if code_fp <= l1i_bytes:
                hierarchy.l1i.access(uop.pc)
            if code_fp <= l2_bytes:
                hierarchy.l2.access(uop.pc)
            previous_line = line
        if uop.is_branch:
            # Train the predictor to steady state: predictor tables hold
            # far more sites than a short sample touches, so at steady
            # state every site has been seen before.
            predictor.predict_and_train(uop.pc, uop.taken)
        if uop.mem_addr is not None:
            data_fp = data_footprint(uop.mem_addr)
            if data_fp <= dtlb_reach:
                dtlb.warm(uop.mem_addr)
            if data_fp <= l1d_bytes:
                hierarchy.l1d.access(uop.mem_addr)
            if data_fp <= l2_bytes:
                hierarchy.l2.access(uop.mem_addr)
    hierarchy.reset_stats()
    itlb.reset_stats()
    dtlb.reset_stats()


def run_prepass(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool = True,
    warm_stream: Optional[Workload] = None,
    predictor_extra_stream: Optional[Workload] = None,
) -> PrepassResult:
    """Execute the functional pre-pass for *workload* under *config*.

    The result depends only on the structure domain of *config* (cache
    geometry, branch predictor) — never on its latency domain.

    Args:
        workload: the measured stream.
        config: the design point.
        warm_caches: warm caches/TLBs/predictor before measuring.
        warm_stream: stream to warm with instead of *workload* itself —
            e.g. the full program when *workload* is a SimPoint interval
            (the checkpoint-warming practice the paper's SimPoint flow
            relies on).
        predictor_extra_stream: additionally train the branch predictor
            on this stream after warming — for a SimPoint interval, the
            measured prefix preceding it, which reproduces the predictor
            state the interval would see in situ.
    """
    if len(workload) == 0:
        raise ValueError("cannot simulate an empty workload")

    from repro.simulator.prefetch import make_prefetcher

    hierarchy = MemoryHierarchy(config.l1i, config.l1d, config.l2)
    itlb = TLB(config.itlb)
    dtlb = TLB(config.dtlb)
    predictor = make_predictor(config.core)
    prefetcher = make_prefetcher(config.prefetcher)
    if warm_caches:
        _warm_structures(
            warm_stream or workload, hierarchy, itlb, dtlb, predictor
        )
    if predictor_extra_stream is not None:
        for uop in predictor_extra_stream:
            if uop.is_branch:
                predictor.predict_and_train(uop.pc, uop.taken)

    records: List[UopTrace] = []
    frees_reg: List[bool] = []
    needs_reg: List[bool] = []
    macro_last: List[int] = []

    rename_map: Dict[int, int] = {}
    written_before: set = set()
    previous_line: Optional[int] = None
    last_store_seq = -1
    #: line -> (seq of most recent miss to it, seq bound of share window)
    inflight_fills: Dict[int, int] = {}
    mispredictions = 0

    # Pre-compute macro-op extents for the SoM commit gate.
    macro_end: Dict[int, int] = {}
    for uop in workload:
        macro_end[uop.macro_id] = uop.seq
    for uop in workload:
        macro_last.append(macro_end[uop.macro_id])

    for uop in workload:
        record = UopTrace(seq=uop.seq)

        # ---- fetch side: line-granular blocking I-cache ----
        line = hierarchy.l1i.line_of(uop.pc)
        if line != previous_line:
            itlb_hit = itlb.access(uop.pc)
            level = hierarchy.access_instruction(uop.pc)
            record.fetch_charge = fetch_access_charge(level, not itlb_hit)
            previous_line = line
        # ---- branch prediction (consulted in fetch order) ----
        if uop.is_branch:
            prediction = predictor.predict_and_train(uop.pc, uop.taken)
            record.mispredicted = prediction != uop.taken
            mispredictions += int(record.mispredicted)

        # ---- register dependencies via the rename map ----
        record.data_producers = tuple(
            rename_map.get(reg, -1) for reg in uop.src_regs
        )
        record.addr_producers = tuple(
            rename_map.get(reg, -1) for reg in uop.addr_src_regs
        )

        # ---- memory side ----
        if uop.mem_addr is not None:
            dtlb_hit = dtlb.access(uop.mem_addr)
            record.dtlb_miss = not dtlb_hit
            level = hierarchy.access_data(uop.mem_addr)
            prefetcher.access(
                hierarchy, uop.pc, uop.mem_addr, level > AccessLevel.L1
            )
            if uop.is_load:
                record.exec_charge = data_access_charge(level, record.dtlb_miss)
                data_line = hierarchy.l1d.line_of(uop.mem_addr)
                sharer = inflight_fills.get(data_line, -1)
                if sharer >= 0 and uop.seq - sharer <= LINE_SHARE_WINDOW:
                    record.line_sharer = sharer
                record.store_barrier = last_store_seq
            else:
                record.exec_charge = ((EventType.BASE, 1),)
                last_store_seq = uop.seq
            if level > 1:  # a fill is (notionally) in flight for a while
                inflight_fills[hierarchy.l1d.line_of(uop.mem_addr)] = uop.seq
        elif uop.opclass is OpClass.NOP:
            record.exec_charge = ((EventType.BASE, 1),)
        else:
            record.exec_charge = ((uop.exec_event, 1),)

        # ---- physical-register bookkeeping metadata ----
        if uop.dst_reg is not None:
            needs_reg.append(True)
            # Committing a writer frees the register its destination
            # previously mapped to — the initial architectural mapping
            # counts, so every committed writer returns one register.
            frees_reg.append(True)
            written_before.add(uop.dst_reg)
            rename_map[uop.dst_reg] = uop.seq
        else:
            needs_reg.append(False)
            frees_reg.append(False)

        records.append(record)

    stats = {
        "l1i_hits": hierarchy.l1i.hits,
        "l1i_misses": hierarchy.l1i.misses,
        "l1d_hits": hierarchy.l1d.hits,
        "l1d_misses": hierarchy.l1d.misses,
        "l2_hits": hierarchy.l2.hits,
        "l2_misses": hierarchy.l2.misses,
        "itlb_misses": itlb.misses,
        "dtlb_misses": dtlb.misses,
        "branch_mispredictions": mispredictions,
    }
    return PrepassResult(
        records=records,
        frees_reg_on_commit=frees_reg,
        needs_phys_reg=needs_reg,
        macro_last_uop=macro_last,
        stats=stats,
    )
