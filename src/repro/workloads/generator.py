"""Deterministic synthetic workload generation.

The paper evaluates on SPEC CPU 2006.  Without those binaries (and without
a full-system x86 front end) we substitute parameterised synthetic
micro-op streams whose *bottleneck composition* can be dialled to match
each SPEC application's qualitative character — FP-dense, memory-bound,
pointer-chasing, branchy, and so on (see ``repro.workloads.suite`` for the
named analogues and DESIGN.md for the substitution argument).

Generation is fully deterministic given ``(spec, seed)``: branch
directions and memory addresses are materialised into the stream, so
re-simulating under any latency configuration replays the identical
instructions — the precondition for single-simulation DSE.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from repro.isa.uop import OpClass, Workload, WorkloadColumns, _csr_from_lists

#: Architectural integer/FP register file size used by generated code.
NUM_ARCH_REGS = 64

#: Bytes per synthetic macro-op in the code image.
MACRO_OP_BYTES = 4

#: Start of the data segment; keeps code and data in disjoint pages.
DATA_BASE = 1 << 30


@dataclass(frozen=True)
class WorkloadSpec:
    """Tunable characteristics of a synthetic workload.

    The probabilities ``p_*`` describe the macro-op template mix and must
    sum to at most 1; the remainder becomes plain integer-ALU macro-ops.

    Attributes:
        name: workload name (reports, caches).
        num_macro_ops: length of the dynamic stream.
        p_load / p_store / p_fp_add / p_fp_mul / p_fp_div / p_int_mul /
            p_int_div / p_branch: macro-op template probabilities.
        p_fused_load_op: probability that a load macro-op fuses a dependent
            ALU µop (x86-style load-op), exercising the SoM/EoM commit
            dependency.
        working_set_bytes: data footprint; larger sets spill L1/L2.
        streaming_fraction: fraction of data accesses that walk the set
            sequentially (prefetch-friendly spatial locality) rather than
            uniformly at random.
        pointer_chase_fraction: fraction of loads whose *address* depends
            on the previous chased load's result — a serial memory chain.
        dep_distance_mean: mean register-dependence distance in µops;
            small values serialise, large values expose ILP.
        code_footprint_bytes: static code size; drives I-cache behaviour.
        branch_bias: probability a conditional branch goes its dominant
            direction; 0.5 is unpredictable, 0.99 is loop-like.  Each
            site's dominant direction (taken / not-taken) is drawn at
            generation time, so static predict-taken cannot match a
            learning predictor.
        hard_branch_fraction: fraction of branch *sites* that use a 50/50
            direction instead of ``branch_bias``.
        alternating_branch_fraction: fraction of branch sites that
            strictly alternate taken/not-taken — learnable by
            history-based predictors (gshare) but not by per-site
            counters (bimodal).
    """

    name: str
    num_macro_ops: int = 2000
    p_load: float = 0.25
    p_store: float = 0.10
    p_fp_add: float = 0.0
    p_fp_mul: float = 0.0
    p_fp_div: float = 0.0
    p_int_mul: float = 0.02
    p_int_div: float = 0.0
    p_branch: float = 0.12
    p_fused_load_op: float = 0.3
    working_set_bytes: int = 32 * 1024
    streaming_fraction: float = 0.5
    pointer_chase_fraction: float = 0.0
    dep_distance_mean: float = 8.0
    code_footprint_bytes: int = 16 * 1024
    branch_bias: float = 0.95
    hard_branch_fraction: float = 0.1
    alternating_branch_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_macro_ops <= 0:
            raise ValueError("num_macro_ops must be positive")
        mix = (
            self.p_load
            + self.p_store
            + self.p_fp_add
            + self.p_fp_mul
            + self.p_fp_div
            + self.p_int_mul
            + self.p_int_div
            + self.p_branch
        )
        if mix > 1.0 + 1e-9:
            raise ValueError(f"template probabilities sum to {mix:.3f} > 1")
        for field_info in fields(self):
            value = getattr(self, field_info.name)
            if field_info.name.startswith("p_") or field_info.name.endswith(
                "_fraction"
            ):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{field_info.name} must be in [0, 1]")
        if not 0.0 <= self.branch_bias <= 1.0:
            raise ValueError("branch_bias must be in [0, 1]")
        if self.dep_distance_mean < 1.0:
            raise ValueError("dep_distance_mean must be >= 1")
        if self.working_set_bytes < 64 or self.code_footprint_bytes < 64:
            raise ValueError("footprints must cover at least one cache line")

    def resized(self, num_macro_ops: int) -> "WorkloadSpec":
        """Same character, different dynamic length."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["num_macro_ops"] = num_macro_ops
        return WorkloadSpec(**values)


class _StreamBuilder:
    """Incremental construction of a valid µop stream's columns.

    Each µop is one row; macro ids and EoM flags follow from the SoM
    flags, since every macro-op starts with its first µop.
    """

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self._som = True

    def begin_macro(self) -> None:
        self._som = True

    def add(
        self,
        opclass: OpClass,
        pc: int,
        src_regs: Tuple[int, ...] = (),
        dst_reg: Optional[int] = None,
        mem_addr: Optional[int] = None,
        addr_src_regs: Tuple[int, ...] = (),
        taken: bool = False,
        target_pc: Optional[int] = None,
    ) -> None:
        """Append one µop to the current macro-op."""
        self.rows.append(
            (
                self._som, opclass, pc,
                -1 if dst_reg is None else dst_reg,
                -1 if mem_addr is None else mem_addr,
                taken,
                -1 if target_pc is None else target_pc,
                src_regs, addr_src_regs,
            )
        )
        self._som = False

    def columns(self) -> WorkloadColumns:
        som, opclass, pc, dst, mem, taken, target, srcs, addr_srcs = (
            zip(*self.rows)
        )
        som = np.array(som)
        src_indptr, src_values = _csr_from_lists(srcs)
        asrc_indptr, asrc_values = _csr_from_lists(addr_srcs)
        return WorkloadColumns(
            n=len(som),
            macro_id=np.cumsum(som) - 1,
            som=som,
            eom=np.append(som[1:], True),
            opclass=opclass,
            pc=pc,
            dst_reg=dst,
            mem_addr=mem,
            taken=taken,
            target_pc=target,
            src_indptr=src_indptr,
            src_values=src_values,
            asrc_indptr=asrc_indptr,
            asrc_values=asrc_values,
        )


def _pick_sources(
    rng: np.random.Generator,
    recent_writers: List[int],
    mean_distance: float,
    count: int,
) -> Tuple[int, ...]:
    """Pick *count* source registers among recent writers.

    Dependence distance is geometric with the requested mean, which gives
    workloads a controllable amount of instruction-level parallelism.
    """
    if not recent_writers:
        return tuple(int(rng.integers(0, NUM_ARCH_REGS)) for _ in range(count))
    p = min(1.0, 1.0 / mean_distance)
    sources = []
    for _ in range(count):
        distance = int(rng.geometric(p))
        index = max(0, len(recent_writers) - distance)
        sources.append(recent_writers[index])
    return tuple(sources)


def generate(spec: WorkloadSpec, seed: int = 0) -> Workload:
    """Materialise the dynamic micro-op stream for *spec*.

    The same ``(spec, seed)`` pair always produces the same stream, and
    streams are prefix-stable: everything drawn before the macro-op
    loop (the pointer-chase order, branch-site styles, the static code
    template) is independent of ``num_macro_ops``, and the loop never
    reads it, so the stream at *m* macro-ops is exactly the first *m*
    macro-ops of the stream at any longer length.  Phased composition
    relies on this (:mod:`repro.workloads.phased`).
    """
    rng = np.random.default_rng(seed)
    builder = _StreamBuilder()

    num_lines = max(1, spec.working_set_bytes // 64)
    # Pointer-chase order: a random cyclic permutation of the working set.
    chase_order = rng.permutation(num_lines)
    chase_position = 0
    stream_position = 0

    code_slots = max(1, spec.code_footprint_bytes // MACRO_OP_BYTES)
    # Branch sites: per-site behaviour fixed at generation time — a
    # dominant direction with the spec's bias, a 50/50 "hard" site, or a
    # strictly alternating site.
    num_sites = max(1, code_slots // 16)
    site_style_draw = rng.random(num_sites)
    hard_site = site_style_draw < spec.hard_branch_fraction
    alternating_site = (~hard_site) & (
        site_style_draw
        < spec.hard_branch_fraction + spec.alternating_branch_fraction
    )
    site_dominant_taken = rng.random(num_sites) < 0.5
    #: per-branch-pc alternation phase (alternation is a property of one
    #: static branch, so it is keyed by code slot, not by site)
    slot_phase: dict = {}

    # The synthetic *code* is static: each code slot gets a fixed macro-op
    # template (and fusion decision), so re-executing a pc replays the
    # same instruction — what basic-block profiles and I-caches assume.
    slot_draw = rng.random(code_slots)
    slot_fused = rng.random(code_slots) < spec.p_fused_load_op

    recent_writers: List[int] = []
    next_dst = 0
    pc_slot = 0

    def alloc_dst() -> int:
        nonlocal next_dst
        reg = next_dst
        next_dst = (next_dst + 1) % NUM_ARCH_REGS
        recent_writers.append(reg)
        if len(recent_writers) > 4 * NUM_ARCH_REGS:
            del recent_writers[: 2 * NUM_ARCH_REGS]
        return reg

    #: register holding the most recent chased-load result, if any
    chase_reg: Optional[int] = None

    thresholds = np.cumsum(
        [
            spec.p_load,
            spec.p_store,
            spec.p_fp_add,
            spec.p_fp_mul,
            spec.p_fp_div,
            spec.p_int_mul,
            spec.p_int_div,
            spec.p_branch,
        ]
    )
    templates = (
        "load",
        "store",
        "fp_add",
        "fp_mul",
        "fp_div",
        "int_mul",
        "int_div",
        "branch",
    )

    def next_data_addr(chased: bool) -> int:
        nonlocal chase_position, stream_position
        if chased:
            chase_position = (chase_position + 1) % num_lines
            line = int(chase_order[chase_position])
        elif rng.random() < spec.streaming_fraction:
            stream_position = (stream_position + 1) % num_lines
            line = stream_position
        else:
            line = int(rng.integers(0, num_lines))
        return DATA_BASE + line * 64 + int(rng.integers(0, 56))

    for _ in range(spec.num_macro_ops):
        slot = pc_slot % code_slots
        pc = slot * MACRO_OP_BYTES
        pc_slot += 1
        draw = slot_draw[slot]
        template = "int_alu"
        for threshold, name in zip(thresholds, templates):
            if draw < threshold:
                template = name
                break

        builder.begin_macro()
        if template == "load":
            chased = (
                spec.pointer_chase_fraction > 0.0
                and rng.random() < spec.pointer_chase_fraction
            )
            if chased and chase_reg is not None:
                addr_srcs: Tuple[int, ...] = (chase_reg,)
            else:
                addr_srcs = _pick_sources(
                    rng, recent_writers, spec.dep_distance_mean, 1
                )
            dst = alloc_dst()
            builder.add(
                opclass=OpClass.LOAD,
                pc=pc,
                src_regs=(),
                dst_reg=dst,
                mem_addr=next_data_addr(chased),
                addr_src_regs=addr_srcs,
            )
            if chased:
                chase_reg = dst
            if slot_fused[slot]:
                builder.add(
                    opclass=OpClass.INT_ALU,
                    pc=pc,
                    src_regs=(dst,),
                    dst_reg=alloc_dst(),
                )
        elif template == "store":
            addr_srcs = _pick_sources(rng, recent_writers, spec.dep_distance_mean, 1)
            data_srcs = _pick_sources(rng, recent_writers, spec.dep_distance_mean, 1)
            builder.add(
                opclass=OpClass.STORE,
                pc=pc,
                src_regs=data_srcs,
                dst_reg=None,
                mem_addr=next_data_addr(False),
                addr_src_regs=addr_srcs,
            )
        elif template == "branch":
            site = (pc // MACRO_OP_BYTES) % num_sites
            if hard_site[site]:
                taken = bool(rng.random() < 0.5)
            elif alternating_site[site]:
                taken = slot_phase.get(slot, False)
                slot_phase[slot] = not taken
            else:
                dominant = bool(site_dominant_taken[site])
                follows = bool(rng.random() < spec.branch_bias)
                taken = dominant if follows else not dominant
            srcs = _pick_sources(rng, recent_writers, spec.dep_distance_mean, 1)
            builder.add(
                opclass=OpClass.BRANCH,
                pc=pc,
                src_regs=srcs,
                dst_reg=None,
                taken=taken,
                target_pc=((pc_slot % code_slots) * MACRO_OP_BYTES),
            )
        else:
            opclass = {
                "int_alu": OpClass.INT_ALU,
                "int_mul": OpClass.INT_MUL,
                "int_div": OpClass.INT_DIV,
                "fp_add": OpClass.FP_ADD,
                "fp_mul": OpClass.FP_MUL,
                "fp_div": OpClass.FP_DIV,
            }[template]
            srcs = _pick_sources(rng, recent_writers, spec.dep_distance_mean, 2)
            builder.add(
                opclass=opclass,
                pc=pc,
                src_regs=srcs,
                dst_reg=alloc_dst(),
            )

    params = tuple(
        (f.name, getattr(spec, f.name)) for f in fields(spec) if f.name != "name"
    ) + (("seed", seed),)
    return Workload.from_columns(spec.name, builder.columns(), params)
