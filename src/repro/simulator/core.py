"""Cycle-accurate out-of-order superscalar timing model.

This is the repo's stand-in for the paper's MARSSx86 baseline simulator.
It models, per Table II: a line-granular blocking front end with I-TLB and
I-cache, a finite fetch buffer, width-limited rename/dispatch/issue/commit
stages, a reorder buffer, an issue queue, a load/store queue, a finite
physical register file, per-class functional units (pipelined except the
divide units), conservative in-order store execution with load/store
ordering, cache-line fill merging, and macro-op-granular commit.

All hit/miss/misprediction outcomes and register dependencies come from
the program-order functional pre-pass (``repro.simulator.prepass``), so a
run's penalty events are identical across latency design points; this
loop only assigns cycle timestamps under one latency configuration.

In-cycle stage ordering encodes the dependence-graph edge weights of
Table I (see ``repro.graphmodel.builder``): stages are processed in the
order commit -> issue -> dispatch -> rename -> fetch, so a zero-weight
constraint (e.g. "rename in the cycle the ROB slot frees", C -> N) is
satisfiable in the same cycle while one-weight constraints (e.g. dispatch
the cycle after rename, N -> D) take effect the next cycle.

The loop skips idle cycles: when no stage makes progress it jumps to the
earliest future event (a line fill, a completion, a divide unit freeing),
which keeps memory-bound workloads fast to simulate.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.common.config import MicroarchConfig
from repro.common.events import LATENCY_DOMAIN, EventType
from repro.isa.uop import OpClass, Workload
from repro.simulator.columns import TIMESTAMP_COLUMNS, TraceColumns
from repro.simulator.prepass import PrepassResult, run_prepass
from repro.simulator.trace import SimResult

#: Functional-unit class per op class.
_FU_BASE = "base"
_FU_LONG = "long"
_FU_FP = "fp"
_FU_LOAD = "load"
_FU_STORE = "store"

_FU_CLASS = {
    OpClass.INT_ALU: _FU_BASE,
    OpClass.BRANCH: _FU_BASE,
    OpClass.NOP: _FU_BASE,
    OpClass.INT_MUL: _FU_LONG,
    OpClass.INT_DIV: _FU_LONG,
    OpClass.FP_ADD: _FU_FP,
    OpClass.FP_MUL: _FU_FP,
    OpClass.FP_DIV: _FU_FP,
    OpClass.LOAD: _FU_LOAD,
    OpClass.STORE: _FU_STORE,
}

_DIVIDE_CLASSES = (OpClass.INT_DIV, OpClass.FP_DIV)

#: Sentinel for "timestamp not assigned yet".
_UNSET = -1


def _charge_cycles(charge, theta) -> int:
    """Price a sparse event charge under latency vector *theta*."""
    return sum(units * theta[event] for event, units in charge)


class TimingSimulator:
    """One timing run: construct, call :meth:`run`, read the result."""

    def __init__(
        self,
        workload: Workload,
        config: MicroarchConfig,
        prepass: PrepassResult,
    ) -> None:
        self.workload = workload
        self.config = config
        self.prepass = prepass
        core = config.core
        theta = config.latency.cycles

        n = len(workload)
        self.n = n
        self.records = prepass.records
        # Per-µop precomputed latencies under this design point.
        self.exec_lat = [
            _charge_cycles(rec.exec_charge, theta) for rec in self.records
        ]
        self.fetch_lat = [
            _charge_cycles(rec.fetch_charge, theta) for rec in self.records
        ]
        dtlb_pen = theta[EventType.DTLB]
        self.dtlb_lat = [
            dtlb_pen if rec.dtlb_miss else 0 for rec in self.records
        ]
        self.agu_lat = [
            theta[EventType.LD]
            if workload[i].is_load
            else theta[EventType.ST]
            for i in range(n)
        ]
        self.misp_penalty = theta[EventType.BR_MISP]

        # Timestamps (E == t_issue, P == t_complete, C == t_commit).
        self.t_fetch = [_UNSET] * n
        self.t_ic = [_UNSET] * n
        self.t_rename = [_UNSET] * n
        self.t_dispatch = [_UNSET] * n
        self.t_ready = [_UNSET] * n
        self.t_issue = [_UNSET] * n
        self.t_complete = [_UNSET] * n
        self.t_commit = [_UNSET] * n
        # Structural witnesses bound during this run.  The pre-pass
        # records stay untouched, so every run over a shared pre-pass
        # starts with unbound (-1) witnesses.
        self.phys_reg_freer = [-1] * n
        self.iq_freer = [-1] * n

        # Front end.
        self.next_fetch = 0
        self.current_line: Optional[int] = None
        self.pending_line: Optional[int] = None
        self.line_ready = 0
        self.fetch_stall_until = 0
        self.blocked_branch: Optional[int] = None
        self.fetch_buffer: Deque[int] = deque()

        # Rename / ROB / registers.
        self.rename_out: Deque[int] = deque()
        self.rob: Deque[int] = deque()
        self.free_regs = core.phys_regs - 64  # arch state stays mapped
        self.reg_waiter: Optional[int] = None

        # Issue queue / LSQ.
        self.iq: List[int] = []
        self.lsq_occupancy = 0
        self.iq_waiter: Optional[int] = None
        #: seqs of all stores, in order; stores issue in this order
        self._store_seqs = [
            seq for seq in range(n) if workload[seq].is_store
        ]
        self._store_index = 0
        self.store_ptr = self._store_seqs[0] if self._store_seqs else n

        # Divide units occupy a pipe until completion.
        self.div_busy: Dict[str, List[int]] = {
            _FU_LONG: [0] * core.fu_long_alu,
            _FU_FP: [0] * core.fu_fp,
        }
        # Miss-status holding registers: completion times of in-flight
        # demand misses (a load that merges with an in-flight fill via
        # line_sharer does not allocate a new one).
        self._mshr_busy: List[int] = []
        self._is_demand_miss = [
            workload[i].is_load
            and self.records[i].line_sharer < 0
            and any(
                event in (EventType.L2D, EventType.MEM_D)
                for event, _units in self.records[i].exec_charge
            )
            for i in range(n)
        ]
        self.fu_count = {
            _FU_BASE: core.fu_base_alu,
            _FU_LONG: core.fu_long_alu,
            _FU_FP: core.fu_fp,
            _FU_LOAD: core.fu_load,
            _FU_STORE: core.fu_store,
        }

        self.committed = 0
        self._line_shift = 6  # 64-byte instruction lines
        #: seq -> True if its readiness was gated by an optimizable event
        self._gated_optimizable: Dict[int, bool] = {}

    def _advance_store_ptr(self) -> None:
        self._store_index += 1
        if self._store_index < len(self._store_seqs):
            self.store_ptr = self._store_seqs[self._store_index]
        else:
            self.store_ptr = self.n

    # ------------------------------------------------------------------
    # per-cycle stage handlers; each returns (made_progress, wake_hints)
    # ------------------------------------------------------------------

    def _commit_stage(self, cycle: int, hints: List[int]) -> bool:
        progress = False
        budget = self.config.core.commit_width
        macro_last = self.prepass.macro_last_uop
        while self.rob and budget > 0:
            head = self.rob[0]
            done = self.t_complete[head]
            if done == _UNSET or done > cycle - 1:
                if done != _UNSET:
                    hints.append(done + 1)
                break
            if self.workload[head].som:
                # Macro-op commit gate: every µop of the macro-op must be
                # complete before its first µop retires (Table I, µop dep).
                gate = _UNSET
                blocked = False
                for member in range(head, macro_last[head] + 1):
                    member_done = self.t_complete[member]
                    if member_done == _UNSET or member_done > cycle - 1:
                        blocked = True
                        if member_done != _UNSET:
                            gate = max(gate, member_done + 1)
                        break
                if blocked:
                    if gate != _UNSET:
                        hints.append(gate)
                    break
            self.rob.popleft()
            self.t_commit[head] = cycle
            self.committed += 1
            budget -= 1
            progress = True
            if self.prepass.frees_reg_on_commit[head]:
                self.free_regs += 1
                if self.reg_waiter is not None:
                    self.phys_reg_freer[self.reg_waiter] = head
                    self.reg_waiter = None
            if self.workload[head].is_memory:
                self.lsq_occupancy -= 1
        return progress

    def _readiness(self, seq: int) -> Optional[int]:
        """Earliest issue time of dispatched µop *seq*, or None if unknown.

        Unknown means some producer has not issued yet, so its completion
        time is not determined.
        """
        record = self.records[seq]
        uop = self.workload[seq]
        ready = self.t_dispatch[seq] + 1  # dispatch-to-issue pipeline cycle
        gated_optimizable = False
        producers = record.data_producers
        if uop.is_memory:
            # Address path: AR1 = max(D+1, addr producers' P), then AGU
            # and (on a miss) the DTLB page walk.
            ar1 = ready
            for producer in record.addr_producers:
                if producer < 0:
                    continue
                done = self.t_complete[producer]
                if done == _UNSET:
                    return None
                if done >= ar1:
                    ar1 = done
                    gated_optimizable = gated_optimizable or (
                        self._is_optimizable_producer(producer)
                    )
            ready = ar1 + self.agu_lat[seq] + self.dtlb_lat[seq]
            producers = record.data_producers  # store data operands
        for producer in producers:
            if producer < 0:
                continue
            done = self.t_complete[producer]
            if done == _UNSET:
                return None
            if done >= ready:
                ready = done
                gated_optimizable = gated_optimizable or (
                    self._is_optimizable_producer(producer)
                )
        if uop.is_load and record.line_sharer >= 0:
            # Merge with the in-flight fill: do not issue before the
            # sharer so completion can be bounded by its fill time.
            sharer_issue = self.t_issue[record.line_sharer]
            if sharer_issue == _UNSET:
                return None
            ready = max(ready, sharer_issue)
        self._gated_optimizable[seq] = gated_optimizable
        return ready

    def _is_optimizable_producer(self, producer: int) -> bool:
        """True if *producer*'s result comes from an optimizable event.

        Used to bias the issue-dependency witness the way the paper's
        graph model prefers (Section IV-C, "modeling the issue dynamics").
        """
        theta = self.config.latency.cycles
        for event, _units in self.records[producer].exec_charge:
            if event in LATENCY_DOMAIN and theta[event] > 1:
                return True
        return False

    def _issue_stage(self, cycle: int, hints: List[int]) -> bool:
        progress = False
        budget = self.config.core.issue_width
        issued_per_class: Dict[str, int] = {}
        issued_this_cycle: List[int] = []
        still_queued: List[int] = []

        for seq in self.iq:
            if budget <= 0:
                still_queued.append(seq)
                continue
            uop = self.workload[seq]
            ready = self.t_ready[seq]
            if ready == _UNSET:
                maybe = self._readiness(seq)
                if maybe is None:
                    still_queued.append(seq)
                    continue
                ready = maybe
                self.t_ready[seq] = ready
            if ready > cycle:
                hints.append(ready)
                still_queued.append(seq)
                continue
            fu = _FU_CLASS[uop.opclass]
            available = self.fu_count[fu] - issued_per_class.get(fu, 0)
            if fu in self.div_busy:
                busy_units = [t for t in self.div_busy[fu] if t > cycle]
                available -= len(busy_units)
                if busy_units:
                    hints.append(min(busy_units))
            if available <= 0:
                still_queued.append(seq)
                continue
            if uop.is_store and seq != self.store_ptr:
                still_queued.append(seq)
                continue
            if uop.is_load and self.store_ptr <= self.records[seq].store_barrier:
                # Conservative ordering: all earlier stores must have
                # issued (they issue in order, so one pointer suffices).
                still_queued.append(seq)
                continue
            if self._is_demand_miss[seq]:
                self._mshr_busy = [
                    t for t in self._mshr_busy if t > cycle
                ]
                if len(self._mshr_busy) >= self.config.core.mshr_entries:
                    hints.append(min(self._mshr_busy))
                    still_queued.append(seq)
                    continue

            # Issue now.
            self.t_issue[seq] = cycle
            completion = cycle + max(1, self.exec_lat[seq])
            sharer = self.records[seq].line_sharer
            if uop.is_load and sharer >= 0:
                completion = max(completion, self.t_complete[sharer])
            self.t_complete[seq] = completion
            issued_per_class[fu] = issued_per_class.get(fu, 0) + 1
            budget -= 1
            progress = True
            issued_this_cycle.append(seq)
            if self._is_demand_miss[seq]:
                self._mshr_busy.append(completion)
            if uop.opclass in _DIVIDE_CLASSES:
                units = self.div_busy[fu]
                slot = min(range(len(units)), key=units.__getitem__)
                units[slot] = completion
            if uop.is_store:
                self._advance_store_ptr()

        self.iq = still_queued
        if issued_this_cycle and self.iq_waiter is not None:
            if self.iq_freer[self.iq_waiter] == -1:
                preferred = [
                    seq
                    for seq in issued_this_cycle
                    if self._gated_optimizable.get(seq)
                ]
                self.iq_freer[self.iq_waiter] = (
                    preferred or issued_this_cycle
                )[0]
            self.iq_waiter = None
        return progress

    def _dispatch_stage(self, cycle: int, hints: List[int]) -> bool:
        progress = False
        budget = self.config.core.dispatch_width
        core = self.config.core
        while self.rename_out and budget > 0:
            seq = self.rename_out[0]
            if self.t_rename[seq] + 1 > cycle:
                hints.append(self.t_rename[seq] + 1)
                break
            if len(self.iq) >= core.iq_size:
                if self.iq_freer[seq] == -1 and self.iq_waiter is None:
                    self.iq_waiter = seq
                break
            uop = self.workload[seq]
            if uop.is_memory and self.lsq_occupancy >= core.lsq_size:
                break
            self.rename_out.popleft()
            self.t_dispatch[seq] = cycle
            self.iq.append(seq)
            if uop.is_memory:
                self.lsq_occupancy += 1
            budget -= 1
            progress = True
        return progress

    def _rename_stage(self, cycle: int, hints: List[int]) -> bool:
        progress = False
        budget = self.config.core.rename_width
        core = self.config.core
        while self.fetch_buffer and budget > 0:
            seq = self.fetch_buffer[0]
            decode_done = self.t_ic[seq] + core.decode_depth
            if decode_done > cycle:
                hints.append(decode_done)
                break
            if len(self.rob) >= core.rob_size:
                break
            if self.prepass.needs_phys_reg[seq] and self.free_regs <= 0:
                if self.reg_waiter is None:
                    self.reg_waiter = seq
                break
            self.fetch_buffer.popleft()
            self.t_rename[seq] = cycle
            self.rob.append(seq)
            if self.prepass.needs_phys_reg[seq]:
                self.free_regs -= 1
            self.rename_out.append(seq)
            budget -= 1
            progress = True
        return progress

    def _fetch_stage(self, cycle: int, hints: List[int]) -> bool:
        if self.next_fetch >= self.n:
            return False
        if self.blocked_branch is not None:
            done = self.t_complete[self.blocked_branch]
            if done == _UNSET:
                return False
            self.fetch_stall_until = done + self.misp_penalty
            self.blocked_branch = None
        if cycle < self.fetch_stall_until:
            hints.append(self.fetch_stall_until)
            return False
        if self.pending_line is not None:
            if cycle < self.line_ready:
                hints.append(self.line_ready)
                return False
            self.current_line = self.pending_line
            self.pending_line = None

        progress = False
        budget = self.config.core.fetch_width
        core = self.config.core
        while (
            budget > 0
            and self.next_fetch < self.n
            and len(self.fetch_buffer) < core.fetch_buffer
        ):
            seq = self.next_fetch
            uop = self.workload[seq]
            line = uop.pc >> self._line_shift
            if line != self.current_line:
                # Open a new instruction line: blocking access, its
                # latency priced from the pre-pass fetch charge.
                self.pending_line = line
                self.line_ready = cycle + max(1, self.fetch_lat[seq])
                self.fetch_stall_until = self.line_ready
                self.t_fetch[seq] = cycle
                progress = True
                hints.append(self.line_ready)
                break
            if self.t_fetch[seq] == _UNSET:
                self.t_fetch[seq] = cycle
            self.t_ic[seq] = cycle
            self.fetch_buffer.append(seq)
            self.next_fetch += 1
            budget -= 1
            progress = True
            if self.records[seq].mispredicted:
                self.blocked_branch = seq
                break
        return progress

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Run to completion and return the :class:`SimResult`."""
        cycle = 0
        guard = 0
        limit = 2000 * self.n + 100000
        while self.committed < self.n:
            hints: List[int] = []
            progress = self._commit_stage(cycle, hints)
            progress |= self._issue_stage(cycle, hints)
            progress |= self._dispatch_stage(cycle, hints)
            progress |= self._rename_stage(cycle, hints)
            progress |= self._fetch_stage(cycle, hints)
            if progress:
                cycle += 1
                guard = 0
            else:
                future = [h for h in hints if h > cycle]
                if future:
                    cycle = min(future)
                else:
                    cycle += 1
                    guard += 1
                    if guard > 100:
                        raise RuntimeError(
                            f"pipeline deadlock at cycle {cycle}, "
                            f"{self.committed}/{self.n} committed"
                        )
            if cycle > limit:
                raise RuntimeError(
                    f"runaway simulation: cycle {cycle} > limit {limit}"
                )

        total_cycles = self.t_commit[self.n - 1]
        return self._package(total_cycles)

    def _package(self, total_cycles: int) -> SimResult:
        # The latency-invariant fields come from the pre-pass records;
        # this run's timestamps and witnesses replace their columns.
        stamped = TIMESTAMP_COLUMNS + ("phys_reg_freer", "iq_freer")
        columns = dataclasses.replace(
            TraceColumns.from_records(self.records),
            **{
                name: np.array(getattr(self, name), np.int64)
                for name in stamped
            },
        )
        stats = dict(self.prepass.stats)
        stats["uops"] = self.n
        stats["macro_ops"] = self.workload.num_macro_ops
        return SimResult(
            workload=self.workload,
            config=self.config,
            cycles=total_cycles,
            columns=columns,
            stats=stats,
        )


def simulate(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool = True,
    native: Optional[bool] = None,
) -> SimResult:
    """Run one full timing simulation.

    Args:
        workload: the dynamic micro-op stream.
        config: the design point (structure + latency domains).
        warm_caches: replay the stream once to warm caches/TLBs first.
        native: ``None`` uses the compiled simulator when available (the
            ``REPRO_NATIVE``-gated default), ``False`` forces the Python
            pre-pass and timing loop, ``True`` requires the compiled
            ones.  The two are bit identical; the differential parity
            suite pins that.

    Returns:
        The :class:`~repro.simulator.trace.SimResult` of the run.
    """
    if native is not False:
        from repro.simulator.native import try_native_simulate

        result = try_native_simulate(
            workload, config, warm_caches=warm_caches, native=native
        )
        if result is not None:
            return result
    prepass = run_prepass(workload, config, warm_caches=warm_caches)
    return TimingSimulator(workload, config, prepass).run()
