"""Struct-of-arrays trace representation (the one in-memory form).

Per-µop :class:`~repro.simulator.trace.UopTrace` dataclasses are
convenient to inspect but expensive to build at trace scale, so every
:class:`~repro.simulator.trace.SimResult` keeps its trace in packed
numpy columns instead — timestamps, witnesses and flags as dense
``int64``/``bool`` arrays, and the ragged per-µop data (event charges,
register producers) in CSR ``indptr``/``values`` form, mirroring the
packed dependence-graph layout.

:class:`TraceColumns` is latency-stamped trace state; the
latency-invariant µop stream is the workload's own
:class:`~repro.isa.uop.WorkloadColumns` (re-exported here).  Both
offer ``canonical_bytes()`` — a fixed-dtype, fixed-order byte encoding
that :func:`repro.simulator.traceio.result_digest` hashes, so the
native and Python paths digest identically *by construction* (equal
values imply equal bytes).

The compiled simulator assembles columns straight from its outcome
arrays; the pure-Python timing loop packs its pre-pass records with
:meth:`TraceColumns.from_records`.  :meth:`TraceColumns.to_records` is
the reverse view, built only for the reference graph builder and tests
(``SimResult.uops``); every production consumer reads columns.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.events import EventType
from repro.isa.uop import (
    WorkloadColumns,
    _canonical,
    _csr_from_lists,
)
from repro.simulator.trace import UopTrace

#: Index-to-member lookup (EventType(i) is ~5x slower in per-row loops).
_EVENT_MEMBERS: Tuple[EventType, ...] = tuple(EventType)

#: Timestamp columns, in UopTrace field order.
TIMESTAMP_COLUMNS = (
    "t_fetch",
    "t_rename",
    "t_dispatch",
    "t_ready",
    "t_issue",
    "t_complete",
    "t_commit",
)

#: Witness columns, in UopTrace field order.
WITNESS_COLUMNS = (
    "store_barrier",
    "line_sharer",
    "phys_reg_freer",
    "iq_freer",
)


def _charge_csr(
    charges: Sequence[Tuple[Tuple[EventType, int], ...]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack sparse event charges into (indptr, events, units)."""
    lengths = np.fromiter(
        (len(charge) for charge in charges), np.int64, count=len(charges)
    )
    indptr = np.zeros(len(charges) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    total = int(indptr[-1])
    events = np.fromiter(
        (int(event) for charge in charges for event, _ in charge),
        np.int16,
        count=total,
    )
    units = np.fromiter(
        (int(units) for charge in charges for _, units in charge),
        np.int32,
        count=total,
    )
    return indptr, events, units


@dataclass(eq=False)
class TraceColumns:
    """One run's trace in struct-of-arrays form.

    Attributes mirror :class:`~repro.simulator.trace.UopTrace` fields
    column-wise; the ragged charge and producer fields use CSR pairs
    (``*_indptr`` of length ``n + 1`` plus flat value arrays).
    """

    n: int
    # flags (bool_)
    dtlb_miss: np.ndarray
    mispredicted: np.ndarray
    # witnesses (int64, -1 sentinels)
    store_barrier: np.ndarray
    line_sharer: np.ndarray
    phys_reg_freer: np.ndarray
    iq_freer: np.ndarray
    # pipeline timestamps (int64)
    t_fetch: np.ndarray
    t_rename: np.ndarray
    t_dispatch: np.ndarray
    t_ready: np.ndarray
    t_issue: np.ndarray
    t_complete: np.ndarray
    t_commit: np.ndarray
    # execution charge CSR: events int16, units int32
    exec_indptr: np.ndarray
    exec_events: np.ndarray
    exec_units: np.ndarray
    # fetch charge CSR
    fetch_indptr: np.ndarray
    fetch_events: np.ndarray
    fetch_units: np.ndarray
    # register producer CSR (int64 seqs, -1 sentinels)
    data_indptr: np.ndarray
    data_values: np.ndarray
    addr_indptr: np.ndarray
    addr_values: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[UopTrace]) -> "TraceColumns":
        """Pack per-µop trace records into columns (the Python path)."""
        n = len(records)
        exec_indptr, exec_events, exec_units = _charge_csr(
            [rec.exec_charge for rec in records]
        )
        fetch_indptr, fetch_events, fetch_units = _charge_csr(
            [rec.fetch_charge for rec in records]
        )
        data_indptr, data_values = _csr_from_lists(
            [rec.data_producers for rec in records]
        )
        addr_indptr, addr_values = _csr_from_lists(
            [rec.addr_producers for rec in records]
        )
        columns: Dict[str, np.ndarray] = {}
        for name in WITNESS_COLUMNS + TIMESTAMP_COLUMNS:
            columns[name] = np.fromiter(
                (getattr(rec, name) for rec in records), np.int64, count=n
            )
        return cls(
            n=n,
            dtlb_miss=np.fromiter(
                (rec.dtlb_miss for rec in records), np.bool_, count=n
            ),
            mispredicted=np.fromiter(
                (rec.mispredicted for rec in records), np.bool_, count=n
            ),
            exec_indptr=exec_indptr,
            exec_events=exec_events,
            exec_units=exec_units,
            fetch_indptr=fetch_indptr,
            fetch_events=fetch_events,
            fetch_units=fetch_units,
            data_indptr=data_indptr,
            data_values=data_values,
            addr_indptr=addr_indptr,
            addr_values=addr_values,
            **columns,
        )

    def to_records(self) -> List[UopTrace]:
        """Materialise :class:`UopTrace` records from the columns.

        Value-identical (and ``==``-equal) to the records the Python
        simulator would have produced: charges become ``(EventType,
        int)`` tuples, producers become int tuples, flags become Python
        bools.  Records are bulk-allocated with cyclic GC paused.  This
        is the ``SimResult.uops`` view, paid only by the reference graph
        builder and tests.
        """
        # No production path builds records; the span and counter keep
        # it visible in `repro profile` / `repro bench` if one starts.
        from repro.obs.observer import get_observer

        obs = get_observer()
        obs.counter("trace.materializations").inc()
        with obs.span("columns.materialize", uops=self.n):
            return self._to_records()

    def _to_records(self) -> List[UopTrace]:
        n = self.n
        members = _EVENT_MEMBERS
        exec_pairs = list(
            zip(
                [members[e] for e in self.exec_events.tolist()],
                self.exec_units.tolist(),
            )
        )
        fetch_pairs = list(
            zip(
                [members[e] for e in self.fetch_events.tolist()],
                self.fetch_units.tolist(),
            )
        )
        ei = self.exec_indptr.tolist()
        fi = self.fetch_indptr.tolist()
        di = self.data_indptr.tolist()
        ai = self.addr_indptr.tolist()
        data_vals = self.data_values.tolist()
        addr_vals = self.addr_values.tolist()
        dm_l = self.dtlb_miss.tolist()
        mp_l = self.mispredicted.tolist()
        sb_l = self.store_barrier.tolist()
        ls_l = self.line_sharer.tolist()
        pf_l = self.phys_reg_freer.tolist()
        iqf_l = self.iq_freer.tolist()
        stamps = [getattr(self, name).tolist() for name in TIMESTAMP_COLUMNS]

        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            records: List[UopTrace] = list(
                map(UopTrace.__new__, itertools.repeat(UopTrace, n))
            )
            for (
                rec, seq, dm, mp, sb, ls, pf, iqf,
                tf, tr, td, trd, ti, tc, tcm,
            ) in zip(
                records, range(n), dm_l, mp_l, sb_l, ls_l, pf_l, iqf_l,
                *stamps,
            ):
                rec.__dict__ = {
                    "seq": seq,
                    "exec_charge": tuple(exec_pairs[ei[seq]:ei[seq + 1]]),
                    "fetch_charge": tuple(fetch_pairs[fi[seq]:fi[seq + 1]]),
                    "dtlb_miss": dm,
                    "mispredicted": mp,
                    "data_producers": tuple(data_vals[di[seq]:di[seq + 1]]),
                    "addr_producers": tuple(addr_vals[ai[seq]:ai[seq + 1]]),
                    "store_barrier": sb,
                    "line_sharer": ls,
                    "phys_reg_freer": pf,
                    "iq_freer": iqf,
                    "t_fetch": tf,
                    "t_rename": tr,
                    "t_dispatch": td,
                    "t_ready": trd,
                    "t_issue": ti,
                    "t_complete": tc,
                    "t_commit": tcm,
                }
        finally:
            if gc_was_enabled:
                gc.enable()
        return records

    #: (column name, canonical dtype), in canonical hashing order.
    _CANONICAL_FIELDS = (
        ("dtlb_miss", np.bool_),
        ("mispredicted", np.bool_),
        ("store_barrier", np.int64),
        ("line_sharer", np.int64),
        ("phys_reg_freer", np.int64),
        ("iq_freer", np.int64),
        ("t_fetch", np.int64),
        ("t_rename", np.int64),
        ("t_dispatch", np.int64),
        ("t_ready", np.int64),
        ("t_issue", np.int64),
        ("t_complete", np.int64),
        ("t_commit", np.int64),
        ("exec_indptr", np.int64),
        ("exec_events", np.int16),
        ("exec_units", np.int32),
        ("fetch_indptr", np.int64),
        ("fetch_events", np.int16),
        ("fetch_units", np.int32),
        ("data_indptr", np.int64),
        ("data_values", np.int64),
        ("addr_indptr", np.int64),
        ("addr_values", np.int64),
    )

    def canonical_bytes(self) -> bytes:
        """Fixed-dtype, fixed-order byte encoding for digesting.

        Two :class:`TraceColumns` carrying equal values produce equal
        bytes regardless of which simulator path built them — the
        property ``result_digest`` relies on for the native/Python
        parity oracle.
        """
        chunks: List[bytes] = [b"trace-columns-v1\x00"]
        chunks.append(int(self.n).to_bytes(8, "little"))
        for name, dtype in self._CANONICAL_FIELDS:
            _canonical(chunks, name, getattr(self, name), dtype)
        return b"".join(chunks)


def columns_equal(a: TraceColumns, b: TraceColumns) -> bool:
    """Exact value equality of two column sets (test helper)."""
    if a.n != b.n:
        return False
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name, _dtype in TraceColumns._CANONICAL_FIELDS
    )
