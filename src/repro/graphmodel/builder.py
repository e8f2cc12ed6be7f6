"""Trace-to-dependence-graph conversion: every Table I constraint.

The builder consumes one workload plus the simulator trace of its
baseline run and emits a :class:`~repro.graphmodel.graph.DependenceGraph`
whose edges reproduce the paper's Table I, including the constraints the
paper adds over prior RISC-oriented models (marked ``+`` there):

=============================  =======================================
constraint                     edge
=============================  =======================================
in-order fetch                 IC[i-1]   -> F[i]
finite fetch bandwidth         IC[i-fbw] -> F[i]      (1 base cycle)
finite fetch buffer (+)        N[i-fbs]  -> F[i]
control dependency             P[i-1]    -> F[i]      (BR_MISP) on a
                               mispredicted branch i-1
ITLB access latency            F[i]    -> ITLB[i]     (ITLB on a miss)
I$ access latency              ITLB[i] -> IC[i]       (L1I/L2I/MEM_I on
                               the µop opening a new line)
rename after I$                IC[i]   -> N[i]        (decode depth)
in-order rename                N[i-1]  -> N[i]
finite reorder buffer          C[i-rbs] -> N[i]
finite rename bandwidth        N[i-nbw] -> N[i]       (1 base cycle)
dispatch after rename          N[i]    -> D[i]        (1 base cycle)
in-order dispatch              D[i-1]  -> D[i]
issue dependency (+)           E[j]    -> D[i]        j = the issue that
                               freed i's IQ slot, preferring consumers of
                               optimizable events (simulator witness)
finite dispatch width          D[i-dbw] -> D[i]       (1 base cycle)
ready after dispatch (+)       D[i]    -> AR1[i]      (1 base cycle)
data dependency, address (+)   P[j]    -> AR1[i]
address calculation (+)        AR1[i]  -> AR2[i]      (LD / ST)
DTLB access latency (+)        AR2[i]  -> DTLB[i]     (DTLB on a miss)
ready after dispatch           D[i]    -> R[i]        (1 base cycle)
finite physical registers      C[j]    -> R[i]        j = commit that
                               freed i's register (simulator witness)
data dependency                P[j]    -> R[i]
ready after DTLB (+)           DTLB[i] -> R[i]
execute after ready            R[i]    -> E[i]
address dependency (+)         E[j]    -> E[i]        loads wait for all
                               earlier stores (stores execute in order,
                               so the last earlier store suffices)
completion after execute       E[i]    -> P[i]        (FU latency; cache
                               access chain for loads)
cache line sharing             P[j]    -> P[i]        merged line fills
in-order commit                C[i-1]  -> RC[i]
finite commit width            C[i-cbw] -> RC[i]      (1 base cycle)
µop dependency (+)             P[j]    -> RC[som]     for every j in the
                               macro-op of i = som (1 base cycle)
commit latency                 RC[i]   -> C[i]
=============================  =======================================

Deviations from the paper's table, both weight-placement choices that
keep the model consistent with our simulator's cycle semantics:

* the load/store ordering constraint uses in-order store execution
  (matching the simulator), so a single edge from the previous store
  replaces the paper's all-prior-stores fan-in; an explicit
  ``E[prev store] -> E[store]`` chain keeps the transitive closure
  identical;
* the one-cycle completion-to-commit latency sits on the ``P -> RC``
  µop-dependency edges rather than on ``RC -> C``, so that the in-order
  commit edge ``C[i-1] -> RC[i]`` still permits ``commit_width`` commits
  in one cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import MicroarchConfig
from repro.common.events import EventType
from repro.graphmodel.graph import (
    MAX_EDGE_EVENTS,
    DependenceGraph,
    GraphBuildError,
)
from repro.graphmodel.nodes import NODES_PER_UOP, Stage, node_id
from repro.isa.uop import OpClass, Workload
from repro.simulator.trace import EventCharge, SimResult, UopTrace

_ZERO: EventCharge = ()
_ONE_CYCLE: EventCharge = ((EventType.BASE, 1),)


@dataclass(frozen=True)
class BuilderOptions:
    """Ablation switches over the paper's *added* constraints.

    The defaults build the full Table I model.  Disabling a flag removes
    the corresponding constraint family, which lets the ablation bench
    quantify how much each of the paper's additions over prior
    RISC-oriented graph models contributes to accuracy (Section IV-C's
    "richer collection of new constraints").

    Attributes:
        issue_dependency: the ``E[j] -> D[i]`` issue-dynamics edge.
        address_path: the AR1/AR2/DTLB address-generation stages for
            memory ops; when off, address producers feed R directly and
            AGU/DTLB penalties are dropped (the prior-work simplification).
        load_store_ordering: loads wait for earlier stores' execution.
        cache_line_sharing: merged in-flight line fills (``P[j]->P[i]``).
        uop_commit_dependency: macro-op-granular commit gating.
        phys_reg_edges: physical-register recycling edges (``C[j]->R[i]``).
        fetch_buffer_edge: the finite-fetch-buffer constraint.
    """

    issue_dependency: bool = True
    address_path: bool = True
    load_store_ordering: bool = True
    cache_line_sharing: bool = True
    uop_commit_dependency: bool = True
    phys_reg_edges: bool = True
    fetch_buffer_edge: bool = True


class DependenceGraphBuilder:
    """Builds the Table I graph from one baseline simulation trace."""

    def __init__(
        self, result: SimResult, options: Optional[BuilderOptions] = None
    ) -> None:
        self.workload: Workload = result.workload
        self.config: MicroarchConfig = result.config
        self.records: Tuple[UopTrace, ...] = result.uops
        self.options = options or BuilderOptions()
        self._src: List[int] = []
        self._dst: List[int] = []
        self._charges: List[EventCharge] = []

    def _edge(
        self, src: int, dst: int, charge: EventCharge = _ZERO
    ) -> None:
        self._src.append(src)
        self._dst.append(dst)
        self._charges.append(charge)

    def build(self) -> DependenceGraph:
        """Construct the graph; callable once per builder."""
        core = self.config.core
        records = self.records
        workload = self.workload
        options = self.options
        n = len(workload)

        # Macro-op extents for the µop commit dependency.
        macro_end = {}
        for uop in workload:
            macro_end[uop.macro_id] = uop.seq

        previous_store: Optional[int] = None
        for i in range(n):
            uop = workload[i]
            record = records[i]
            f = node_id(i, Stage.F)
            itlb = node_id(i, Stage.ITLB)
            ic = node_id(i, Stage.IC)
            rn = node_id(i, Stage.N)
            d = node_id(i, Stage.D)
            r = node_id(i, Stage.R)
            e = node_id(i, Stage.E)
            p = node_id(i, Stage.P)
            rc = node_id(i, Stage.RC)
            c = node_id(i, Stage.C)

            # ---- front end ----
            if i >= 1:
                self._edge(node_id(i - 1, Stage.IC), f)
            if i >= core.fetch_width:
                self._edge(
                    node_id(i - core.fetch_width, Stage.IC), f, _ONE_CYCLE
                )
            if i >= core.fetch_buffer and options.fetch_buffer_edge:
                self._edge(node_id(i - core.fetch_buffer, Stage.N), f)
            if i >= 1 and records[i - 1].mispredicted:
                self._edge(
                    node_id(i - 1, Stage.P), f, ((EventType.BR_MISP, 1),)
                )
            itlb_charge, icache_charge = _split_fetch_charge(
                record.fetch_charge
            )
            self._edge(f, itlb, itlb_charge)
            self._edge(itlb, ic, icache_charge)

            # ---- rename ----
            decode: EventCharge = (
                ((EventType.BASE, core.decode_depth),)
                if core.decode_depth
                else _ZERO
            )
            self._edge(ic, rn, decode)
            if i >= 1:
                self._edge(node_id(i - 1, Stage.N), rn)
            if i >= core.rob_size:
                self._edge(node_id(i - core.rob_size, Stage.C), rn)
            if i >= core.rename_width:
                self._edge(
                    node_id(i - core.rename_width, Stage.N), rn, _ONE_CYCLE
                )

            # ---- dispatch ----
            self._edge(rn, d, _ONE_CYCLE)
            if i >= 1:
                self._edge(node_id(i - 1, Stage.D), d)
            if record.iq_freer >= 0 and options.issue_dependency:
                self._edge(node_id(record.iq_freer, Stage.E), d)
            if i >= core.dispatch_width:
                self._edge(
                    node_id(i - core.dispatch_width, Stage.D), d, _ONE_CYCLE
                )

            # ---- ready (address path for memory ops) ----
            if uop.is_memory and not options.address_path:
                # Prior-work simplification: address operands feed R
                # directly; AGU and DTLB penalties are not modelled.
                for producer in record.addr_producers:
                    if producer >= 0:
                        self._edge(node_id(producer, Stage.P), r)
            elif uop.is_memory:
                ar1 = node_id(i, Stage.AR1)
                ar2 = node_id(i, Stage.AR2)
                dtlb = node_id(i, Stage.DTLB)
                self._edge(d, ar1, _ONE_CYCLE)
                for producer in record.addr_producers:
                    if producer >= 0:
                        self._edge(node_id(producer, Stage.P), ar1)
                agu_event = EventType.LD if uop.is_load else EventType.ST
                self._edge(ar1, ar2, ((agu_event, 1),))
                dtlb_charge: EventCharge = (
                    ((EventType.DTLB, 1),) if record.dtlb_miss else _ZERO
                )
                self._edge(ar2, dtlb, dtlb_charge)
                self._edge(dtlb, r)
            self._edge(d, r, _ONE_CYCLE)
            if record.phys_reg_freer >= 0 and options.phys_reg_edges:
                self._edge(node_id(record.phys_reg_freer, Stage.C), r)
            for producer in record.data_producers:
                if producer >= 0:
                    self._edge(node_id(producer, Stage.P), r)

            # ---- execute ----
            self._edge(r, e)
            if (
                uop.is_load
                and record.store_barrier >= 0
                and options.load_store_ordering
            ):
                self._edge(node_id(record.store_barrier, Stage.E), e)
            if uop.is_store and options.load_store_ordering:
                if previous_store is not None:
                    self._edge(node_id(previous_store, Stage.E), e)
                previous_store = i
            share = (
                uop.is_load
                and record.line_sharer >= 0
                and options.cache_line_sharing
            )
            if share:
                self._edge(node_id(record.line_sharer, Stage.E), e)
            self._edge(e, p, record.exec_charge)
            if share:
                self._edge(node_id(record.line_sharer, Stage.P), p)

            # ---- commit ----
            if i >= 1:
                self._edge(node_id(i - 1, Stage.C), rc)
            if i >= core.commit_width:
                self._edge(
                    node_id(i - core.commit_width, Stage.C), rc, _ONE_CYCLE
                )
            if not options.uop_commit_dependency:
                # Prior-work simplification: each µop commits on its own
                # completion, with no macro-op gate.
                self._edge(p, rc, _ONE_CYCLE)
            elif uop.som:
                for member in range(i, macro_end[uop.macro_id] + 1):
                    self._edge(node_id(member, Stage.P), rc, _ONE_CYCLE)
            self._edge(rc, c)

        return pack_edges(n, self._src, self._dst, self._charges)


def pack_edges(
    num_uops: int,
    src: Sequence[int],
    dst: Sequence[int],
    charges: Sequence[EventCharge],
) -> DependenceGraph:
    """The graph of edges ``src[i] -> dst[i]``, each charged
    ``charges[i]`` (at most ``MAX_EDGE_EVENTS`` ``(event, units)``
    pairs).

    A stable sort by destination orders the edges; a destination's
    in-edges keep their order in the lists.
    """
    if not len(src) == len(dst) == len(charges):
        raise GraphBuildError("edge arrays must have equal length")
    order = np.argsort(np.asarray(dst, dtype=np.int64), kind="stable")
    events = np.zeros((len(order), MAX_EDGE_EVENTS), dtype=np.int16)
    units = np.zeros((len(order), MAX_EDGE_EVENTS), dtype=np.int32)
    for row, i in enumerate(order.tolist()):
        charge = charges[i]
        if len(charge) > MAX_EDGE_EVENTS:
            raise GraphBuildError(
                f"edge {i} carries {len(charge)} event pairs "
                f"(max {MAX_EDGE_EVENTS})"
            )
        for slot, (event, count) in enumerate(charge):
            events[row, slot] = event
            units[row, slot] = count
    return DependenceGraph(
        num_uops,
        np.asarray(src, dtype=np.int64)[order],
        np.asarray(dst, dtype=np.int64)[order],
        events,
        units,
    )


def _split_fetch_charge(
    charge: EventCharge,
) -> Tuple[EventCharge, EventCharge]:
    """Split a fetch charge into (F->ITLB, ITLB->IC) edge charges."""
    itlb = tuple(pair for pair in charge if pair[0] is EventType.ITLB)
    icache = tuple(pair for pair in charge if pair[0] is not EventType.ITLB)
    return itlb, icache


# ----------------------------------------------------------------------
# columnar builder
# ----------------------------------------------------------------------
#
# The record builder above is the executable specification: one
# readable loop emitting every Table I edge.  The columnar builder
# below produces the *identical* graph (same edges, same charges, same
# CSR order — pinned by the builder-equality tests) straight from
# TraceColumns arrays, with no per-µop Python work.
#
# Ordering argument: every `_edge` call in the reference's iteration i
# has its destination among µop i's nodes, so the reference's global
# emission order restricted to one destination node equals the textual
# order of the `_edge` call sites.  Each call site below is one edge
# *family* emitted for all µops at once, in that textual order; a
# stable sort by dst of the families concatenated in emission order —
# with within-family generation order matching the reference's loop
# order — therefore reproduces the stable sort by dst in `pack_edges`
# exactly, which is the edge order `DependenceGraph` requires.


class _EdgeAccumulator:
    """Collects vectorised edge families, then packs + sorts them."""

    def __init__(self) -> None:
        self._families: List[tuple] = []

    def emit(self, src, dst, charge=None) -> None:
        """Add one family.

        *charge* is ``None`` (zero charge), one ``(event, units)`` pair
        per edge (scalars, or per-edge columns of shape ``(m,)``), or
        per-edge ``(events, units)`` rows of shape
        ``(m, MAX_EDGE_EVENTS)``.
        """
        if len(src) == 0:
            return
        self._families.append((np.asarray(src), np.asarray(dst), charge))

    def pack(self, num_uops: int) -> DependenceGraph:
        # Families sit in emission order in the concatenation, so a
        # stable sort by destination alone gives the (dst, family)
        # order.  Each family's sources and charges are then scattered
        # straight into their sorted slots; the permutation is dropped
        # before the outputs are allocated, which lowers the peak.
        edge_dst = np.concatenate(
            [dst for _src, dst, _charge in self._families], dtype=np.int64
        )
        order = np.argsort(edge_dst, kind="stable")
        total = len(order)
        slot = np.empty(total, np.int64)
        slot[order] = np.arange(total, dtype=np.int64)
        edge_dst = edge_dst[order]
        del order
        edge_src = np.empty(total, np.int64)
        events = np.zeros((total, MAX_EDGE_EVENTS), np.int16)
        units = np.zeros((total, MAX_EDGE_EVENTS), np.int32)
        offset = 0
        for src, _dst, charge in self._families:
            where = slot[offset : offset + len(src)]
            edge_src[where] = src
            if charge is not None:
                event, count = charge
                if np.ndim(event) == 2:
                    events[where] = event
                    units[where] = count
                else:
                    events[where, 0] = event
                    units[where, 0] = count
            offset += len(src)
        return DependenceGraph(num_uops, edge_src, edge_dst, events, units)


def _charge_rows(counts, pair_events, pair_units):
    """Per-µop charge pairs, grouped by µop, -> zero-padded
    ``(n, MAX_EDGE_EVENTS)`` event and unit rows; µop ``i`` has
    ``counts[i]`` pairs."""
    if int(counts.max(initial=0)) > MAX_EDGE_EVENTS:
        worst = int(np.argmax(counts))
        raise GraphBuildError(
            f"edge for µop {worst} carries {int(counts[worst])} event "
            f"pairs (max {MAX_EDGE_EVENTS})"
        )
    valid = np.arange(MAX_EDGE_EVENTS) < counts[:, None]
    events = np.zeros(valid.shape, np.int16)
    units = np.zeros(valid.shape, np.int32)
    events[valid] = pair_events
    units[valid] = pair_units
    return events, units


def _split_fetch_columns(indptr, csr_events, csr_units):
    """Columnar twin of :func:`_split_fetch_charge`.

    Returns the F->ITLB and ITLB->IC families' ``(events, units)``
    rows: each µop's fetch-charge pairs partitioned by event identity,
    with their order kept on both sides.
    """
    n = len(indptr) - 1
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    is_itlb = csr_events == int(EventType.ITLB)

    def side(mask):
        return _charge_rows(
            np.bincount(owner[mask], minlength=n),
            csr_events[mask],
            csr_units[mask],
        )

    return side(is_itlb), side(~is_itlb)


def _macro_last_from_ids(macro_id: np.ndarray) -> np.ndarray:
    """Per-µop seq of the last µop in its macro-op (vectorised)."""
    seq = np.arange(len(macro_id), dtype=np.int64)
    _uniq, inverse = np.unique(macro_id, return_inverse=True)
    last = np.zeros(inverse.max(initial=-1) + 1, np.int64)
    np.maximum.at(last, inverse, seq)
    return last[inverse]


def _expand_producers(indptr, values, row_gate):
    """CSR producers -> (src µop, dst µop) pairs, dropping -1 entries.

    *row_gate* masks whole µops (the reference builder only walks
    address producers of memory ops).
    """
    rows = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )
    keep = (values >= 0) & row_gate[rows]
    return values[keep], rows[keep]


def _graph_from_columns(
    result: SimResult, options: BuilderOptions
) -> DependenceGraph:
    """The Table I graph straight from columnar trace arrays: the
    reference builder's graph, with no per-µop Python loop."""
    core = result.config.core
    tc = result.columns
    n = tc.n
    if n == 0:
        return pack_edges(0, [], [], [])

    wc = result.workload.columns
    idx = np.arange(n, dtype=np.int64)
    base = idx * NODES_PER_UOP

    def nodes(stage: Stage) -> np.ndarray:
        return base + int(stage)

    f_n = nodes(Stage.F)
    itlb_n = nodes(Stage.ITLB)
    ic_n = nodes(Stage.IC)
    rn_n = nodes(Stage.N)
    d_n = nodes(Stage.D)
    r_n = nodes(Stage.R)
    e_n = nodes(Stage.E)
    p_n = nodes(Stage.P)
    rc_n = nodes(Stage.RC)
    c_n = nodes(Stage.C)

    opclass = wc.opclass.astype(np.int64)
    is_load = opclass == int(OpClass.LOAD)
    is_store = opclass == int(OpClass.STORE)
    is_mem = is_load | is_store
    som = wc.som
    misp = tc.mispredicted
    iq_freer = tc.iq_freer
    preg_freer = tc.phys_reg_freer
    store_barrier = tc.store_barrier
    line_sharer = tc.line_sharer

    acc = _EdgeAccumulator()
    one = (EventType.BASE, 1)

    # ---- front end ----
    acc.emit(ic_n[:-1], f_n[1:])
    if n > core.fetch_width:
        acc.emit(ic_n[: n - core.fetch_width], f_n[core.fetch_width :], one)
    if options.fetch_buffer_edge and n > core.fetch_buffer:
        acc.emit(rn_n[: n - core.fetch_buffer], f_n[core.fetch_buffer :])
    misp_prev = misp[:-1]
    acc.emit(
        p_n[:-1][misp_prev], f_n[1:][misp_prev], (EventType.BR_MISP, 1)
    )
    itlb_charge, icache_charge = _split_fetch_columns(
        tc.fetch_indptr, tc.fetch_events, tc.fetch_units
    )
    acc.emit(f_n, itlb_n, itlb_charge)
    acc.emit(itlb_n, ic_n, icache_charge)

    # ---- rename ----
    decode = (EventType.BASE, core.decode_depth) if core.decode_depth else None
    acc.emit(ic_n, rn_n, decode)
    acc.emit(rn_n[:-1], rn_n[1:])
    if n > core.rob_size:
        acc.emit(c_n[: n - core.rob_size], rn_n[core.rob_size :])
    if n > core.rename_width:
        acc.emit(
            rn_n[: n - core.rename_width], rn_n[core.rename_width :], one
        )

    # ---- dispatch ----
    acc.emit(rn_n, d_n, one)
    acc.emit(d_n[:-1], d_n[1:])
    if options.issue_dependency:
        gate = iq_freer >= 0
        acc.emit(
            iq_freer[gate] * NODES_PER_UOP + int(Stage.E), d_n[gate]
        )
    if n > core.dispatch_width:
        acc.emit(
            d_n[: n - core.dispatch_width], d_n[core.dispatch_width :], one
        )

    # ---- ready (address path for memory ops) ----
    if not options.address_path:
        producers, rows = _expand_producers(
            tc.addr_indptr, tc.addr_values, is_mem
        )
        acc.emit(
            producers * NODES_PER_UOP + int(Stage.P),
            rows * NODES_PER_UOP + int(Stage.R),
        )
    else:
        mem_idx = idx[is_mem]
        ar1_n = mem_idx * NODES_PER_UOP + int(Stage.AR1)
        ar2_n = mem_idx * NODES_PER_UOP + int(Stage.AR2)
        dtlb_n = mem_idx * NODES_PER_UOP + int(Stage.DTLB)
        acc.emit(d_n[is_mem], ar1_n, one)
        producers, rows = _expand_producers(
            tc.addr_indptr, tc.addr_values, is_mem
        )
        acc.emit(
            producers * NODES_PER_UOP + int(Stage.P),
            rows * NODES_PER_UOP + int(Stage.AR1),
        )
        agu_event = np.where(
            is_load[is_mem], int(EventType.LD), int(EventType.ST)
        )
        acc.emit(ar1_n, ar2_n, (agu_event, 1))
        dtlb_miss = tc.dtlb_miss[is_mem].astype(np.int32)
        acc.emit(
            ar2_n, dtlb_n, (dtlb_miss * int(EventType.DTLB), dtlb_miss)
        )
        acc.emit(dtlb_n, r_n[is_mem])
    acc.emit(d_n, r_n, one)
    if options.phys_reg_edges:
        gate = preg_freer >= 0
        acc.emit(
            preg_freer[gate] * NODES_PER_UOP + int(Stage.C), r_n[gate]
        )
    producers, rows = _expand_producers(
        tc.data_indptr, tc.data_values, np.ones(n, np.bool_)
    )
    acc.emit(
        producers * NODES_PER_UOP + int(Stage.P),
        rows * NODES_PER_UOP + int(Stage.R),
    )

    # ---- execute ----
    acc.emit(r_n, e_n)
    if options.load_store_ordering:
        gate = is_load & (store_barrier >= 0)
        acc.emit(
            store_barrier[gate] * NODES_PER_UOP + int(Stage.E), e_n[gate]
        )
        store_idx = idx[is_store]
        acc.emit(
            store_idx[:-1] * NODES_PER_UOP + int(Stage.E),
            store_idx[1:] * NODES_PER_UOP + int(Stage.E),
        )
    share = (
        is_load & (line_sharer >= 0)
        if options.cache_line_sharing
        else np.zeros(n, np.bool_)
    )
    acc.emit(
        line_sharer[share] * NODES_PER_UOP + int(Stage.E), e_n[share]
    )
    acc.emit(
        e_n,
        p_n,
        _charge_rows(np.diff(tc.exec_indptr), tc.exec_events, tc.exec_units),
    )
    acc.emit(
        line_sharer[share] * NODES_PER_UOP + int(Stage.P), p_n[share]
    )

    # ---- commit ----
    acc.emit(c_n[:-1], rc_n[1:])
    if n > core.commit_width:
        acc.emit(
            c_n[: n - core.commit_width], rc_n[core.commit_width :], one
        )
    if not options.uop_commit_dependency:
        acc.emit(p_n, rc_n, one)
    else:
        macro_last = _macro_last_from_ids(wc.macro_id)
        starts = idx[som]
        member_counts = macro_last[som] - starts + 1
        total = int(member_counts.sum())
        row_offsets = np.repeat(
            np.cumsum(member_counts) - member_counts, member_counts
        )
        members = (
            np.repeat(starts, member_counts)
            + np.arange(total, dtype=np.int64)
            - row_offsets
        )
        acc.emit(
            members * NODES_PER_UOP + int(Stage.P),
            np.repeat(rc_n[som], member_counts),
            one,
        )
    acc.emit(rc_n, c_n)

    return acc.pack(n)


def build_graph(
    result: SimResult, options: Optional[BuilderOptions] = None
) -> DependenceGraph:
    """Build the dependence graph of one simulation result.

    Builds straight from the trace's columns: byte-identical output to
    the reference :class:`DependenceGraphBuilder` (same edge order,
    charges and CSR layout, pinned by the builder-equality suite), so
    native results never materialise per-µop records here.
    """
    from repro.obs.observer import get_observer

    obs = get_observer()
    with obs.span(
        "graph.build",
        workload=result.workload.name,
        uops=len(result.workload),
    ) as span:
        graph = _graph_from_columns(result, options or BuilderOptions())
    if obs.enabled:
        span.set(nodes=graph.num_nodes, edges=graph.num_edges)
        obs.gauge("graph.nodes").set(graph.num_nodes)
        obs.gauge("graph.edges").set(graph.num_edges)
    return graph
