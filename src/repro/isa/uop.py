"""Micro-op / macro-op instruction model.

RpStacks targets an x86-like microarchitecture where each architectural
instruction (*macro-op*) decodes into one or more *micro-ops* that flow
through the out-of-order pipeline independently but must commit together,
in macro-op granularity.  The simulator therefore records, per micro-op,
whether it is the Start-of-Macro-op (SoM) or End-of-Macro-op (EoM); the
dependence-graph builder turns that into the paper's "µop dependency"
commit constraint (Table I).

A :class:`Workload` is a named dynamic µop stream held in one form:
:class:`WorkloadColumns`, struct-of-arrays columns that the generator
builds, the trace archive stores, the compiled simulator packs and the
fingerprint hashes.  :class:`MicroOp` records are a read-only view of
those columns (``Workload.uops``), built on first touch for the
pure-Python simulator, the reference graph builder, report helpers and
tests.  All non-deterministic aspects (branch directions, memory
addresses) are fixed at generation time so that re-simulating the same
workload under a different latency configuration replays the identical
instruction stream — the property the single-simulation methodology
relies on.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.events import EventType


class OpClass(IntEnum):
    """Execution resource class of a micro-op."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ADD = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    NOP = 9


#: Execution event charged while the micro-op occupies its functional unit.
#: Loads/stores additionally charge the cache/TLB chain discovered at run
#: time; branches execute on the base ALU.
EXEC_EVENT = {
    OpClass.INT_ALU: EventType.INT_ALU,
    OpClass.INT_MUL: EventType.INT_MUL,
    OpClass.INT_DIV: EventType.INT_DIV,
    OpClass.FP_ADD: EventType.FP_ADD,
    OpClass.FP_MUL: EventType.FP_MUL,
    OpClass.FP_DIV: EventType.FP_DIV,
    OpClass.LOAD: EventType.LD,
    OpClass.STORE: EventType.ST,
    OpClass.BRANCH: EventType.INT_ALU,
    OpClass.NOP: EventType.BASE,
}

#: Micro-op classes that access data memory.
MEMORY_CLASSES = (OpClass.LOAD, OpClass.STORE)

#: Micro-op classes executing on the long-latency integer pipe.
LONG_ALU_CLASSES = (OpClass.INT_MUL, OpClass.INT_DIV)

#: Micro-op classes executing on the FP pipe.
FP_CLASSES = (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV)

#: Value-to-member lookup (the values are 0..9 in declaration order).
_OPCLASS_MEMBERS: Tuple[OpClass, ...] = tuple(OpClass)


@dataclass(frozen=True)
class MicroOp:
    """One dynamic micro-op instance.

    Attributes:
        seq: position in the dynamic stream (0-based, dense).
        macro_id: id of the owning macro-op; micro-ops of one macro-op are
            contiguous in the stream.
        som / eom: Start/End-of-Macro-op markers.
        opclass: execution resource class.
        pc: byte address of the owning macro-op (drives I-cache/ITLB).
        src_regs: architectural source register ids (0..63); at most two.
        dst_reg: architectural destination register id, or ``None``.
        mem_addr: byte address touched (loads/stores only).
        addr_src_regs: registers consumed by address generation
            (loads/stores only) — these feed the AR1 node of the graph.
        is_branch: convenience flag, true iff ``opclass is BRANCH``.
        taken: actual branch direction (branches only).
        target_pc: actual successor pc (branches only).
    """

    seq: int
    macro_id: int
    som: bool
    eom: bool
    opclass: OpClass
    pc: int
    src_regs: Tuple[int, ...] = ()
    dst_reg: Optional[int] = None
    mem_addr: Optional[int] = None
    addr_src_regs: Tuple[int, ...] = ()
    taken: bool = False
    target_pc: Optional[int] = None

    def __post_init__(self) -> None:
        # WorkloadColumns.validate mirrors these checks, in this order.
        if self.opclass not in _OPCLASS_MEMBERS:
            raise ValueError(f"{self.opclass} is not a valid OpClass")
        if self.seq < 0 or self.macro_id < 0:
            raise ValueError("seq and macro_id must be non-negative")
        if len(self.src_regs) > 2:
            raise ValueError("a micro-op reads at most two data operands")
        if self.is_memory and self.mem_addr is None:
            raise ValueError(f"{self.opclass.name} micro-op needs mem_addr")
        if not self.is_memory and self.mem_addr is not None:
            raise ValueError("non-memory micro-op must not carry mem_addr")
        if self.addr_src_regs and not self.is_memory:
            raise ValueError("addr_src_regs only apply to memory micro-ops")

    @property
    def is_memory(self) -> bool:
        return self.opclass in MEMORY_CLASSES

    @property
    def is_load(self) -> bool:
        return self.opclass is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.opclass is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.opclass is OpClass.BRANCH

    @property
    def exec_event(self) -> EventType:
        """Event charged for occupancy of this op's functional unit."""
        return EXEC_EVENT[self.opclass]


# ----------------------------------------------------------------------
# the stream's columns
# ----------------------------------------------------------------------


def _csr_from_lists(
    rows: Sequence[Sequence[int]], dtype=np.int64
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack a list of variable-length rows into (indptr, values)."""
    lengths = np.fromiter(
        (len(row) for row in rows), np.int64, count=len(rows)
    )
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    values = np.fromiter(
        (value for row in rows for value in row),
        dtype,
        count=int(indptr[-1]),
    )
    return indptr, values


def _canonical(chunks: List[bytes], tag: str, array: np.ndarray, dtype):
    """Append one column's canonical byte encoding."""
    chunks.append(tag.encode("ascii") + b"\x00")
    chunks.append(np.ascontiguousarray(array, dtype=dtype).tobytes())


def _raise_first(checks) -> None:
    """Raise the message of the first failing (mask, message) check at
    the first row any check fails on."""
    bad = np.logical_or.reduce([mask for mask, _message in checks])
    if bad.any():
        row = int(np.argmax(bad))
        for mask, message in checks:
            if mask[row]:
                raise ValueError(message(row))


@dataclass(eq=False)
class WorkloadColumns:
    """A dynamic µop stream in struct-of-arrays form.

    One row per µop in program order; ``seq`` is the row index.  Absent
    optional fields (``dst_reg``, ``mem_addr``, ``target_pc``) are -1,
    and the ragged register lists are CSR pairs, so register ids and
    address-source counts are unbounded and every stream a
    :class:`MicroOp` can express has columns.  Arrays are coerced to
    the dtypes below on construction and made read-only once a
    :class:`Workload` holds them.
    """

    n: int
    macro_id: np.ndarray   # int64
    som: np.ndarray        # bool_
    eom: np.ndarray        # bool_
    opclass: np.ndarray    # int16
    pc: np.ndarray         # int64
    dst_reg: np.ndarray    # int64, -1 when no destination
    mem_addr: np.ndarray   # int64, -1 for non-memory µops
    taken: np.ndarray      # bool_
    target_pc: np.ndarray  # int64, -1 when absent
    src_indptr: np.ndarray   # int64 (n + 1)
    src_values: np.ndarray   # int64
    asrc_indptr: np.ndarray  # int64 (n + 1)
    asrc_values: np.ndarray  # int64

    #: (column, dtype) in canonical hashing order.
    _CANONICAL_FIELDS = (
        ("macro_id", np.int64),
        ("som", np.bool_),
        ("eom", np.bool_),
        ("opclass", np.int16),
        ("pc", np.int64),
        ("dst_reg", np.int64),
        ("mem_addr", np.int64),
        ("taken", np.bool_),
        ("target_pc", np.int64),
        ("src_indptr", np.int64),
        ("src_values", np.int64),
        ("asrc_indptr", np.int64),
        ("asrc_values", np.int64),
    )

    #: One-value-per-µop columns (everything but the CSR pairs).
    _ROW_FIELDS = (
        "macro_id", "som", "eom", "opclass", "pc",
        "dst_reg", "mem_addr", "taken", "target_pc",
    )

    def __post_init__(self) -> None:
        self.n = int(self.n)
        for name, dtype in self._CANONICAL_FIELDS:
            setattr(
                self, name, np.ascontiguousarray(getattr(self, name), dtype)
            )

    @classmethod
    def from_uops(cls, uops: Sequence[MicroOp]) -> "WorkloadColumns":
        """Pack :class:`MicroOp` records (hand-built streams)."""
        n = len(uops)
        src_indptr, src_values = _csr_from_lists([u.src_regs for u in uops])
        asrc_indptr, asrc_values = _csr_from_lists(
            [u.addr_src_regs for u in uops]
        )

        def column(values, dtype):
            return np.fromiter(values, dtype, count=n)

        return cls(
            n=n,
            macro_id=column((u.macro_id for u in uops), np.int64),
            som=column((u.som for u in uops), np.bool_),
            eom=column((u.eom for u in uops), np.bool_),
            opclass=column((u.opclass for u in uops), np.int16),
            pc=column((u.pc for u in uops), np.int64),
            dst_reg=column(
                (-1 if u.dst_reg is None else u.dst_reg for u in uops),
                np.int64,
            ),
            mem_addr=column(
                (-1 if u.mem_addr is None else u.mem_addr for u in uops),
                np.int64,
            ),
            taken=column((u.taken for u in uops), np.bool_),
            target_pc=column(
                (-1 if u.target_pc is None else u.target_pc for u in uops),
                np.int64,
            ),
            src_indptr=src_indptr,
            src_values=src_values,
            asrc_indptr=asrc_indptr,
            asrc_values=asrc_values,
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["WorkloadColumns"]
    ) -> "WorkloadColumns":
        """Rows of *parts*, in order, as one column set."""
        merged = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in cls._ROW_FIELDS
        }
        for indptr, values in (
            ("src_indptr", "src_values"),
            ("asrc_indptr", "asrc_values"),
        ):
            offsets = np.cumsum([0] + [len(getattr(p, values)) for p in parts])
            merged[indptr] = np.concatenate(
                [np.zeros(1, np.int64)]
                + [
                    getattr(p, indptr)[1:] + offset
                    for p, offset in zip(parts, offsets)
                ]
            )
            merged[values] = np.concatenate(
                [getattr(p, values) for p in parts]
            )
        return cls(n=sum(p.n for p in parts), **merged)

    def window(self, start: int, stop: int) -> "WorkloadColumns":
        """Rows ``[start, stop)`` as a new column set (values unchanged)."""
        rows = {
            name: getattr(self, name)[start:stop].copy()
            for name in self._ROW_FIELDS
        }
        for indptr, values in (
            ("src_indptr", "src_values"),
            ("asrc_indptr", "asrc_values"),
        ):
            bounds = getattr(self, indptr)[start : stop + 1]
            rows[indptr] = bounds - bounds[0]
            rows[values] = getattr(self, values)[bounds[0] : bounds[-1]].copy()
        return WorkloadColumns(n=stop - start, **rows)

    def validate(self) -> None:
        """Check the columns describe a valid µop stream.

        Rejects exactly the streams that :class:`MicroOp` construction
        plus :func:`validate_stream` reject, with the same
        ``ValueError`` message for the same first offending µop: every
        per-µop check first (in ``MicroOp.__post_init__`` order), then
        the stream's SoM/EoM bracketing.  Malformed arrays (wrong
        lengths, broken CSR offsets) raise ``ValueError`` too.
        """
        self._check_layout()
        n = self.n
        if n == 0:
            return
        opclass = self.opclass
        is_memory = (opclass == OpClass.LOAD) | (opclass == OpClass.STORE)
        has_addr = self.mem_addr >= 0
        _raise_first(
            (
                (
                    (opclass < 0) | (opclass >= len(_OPCLASS_MEMBERS)),
                    lambda i: f"{opclass[i]} is not a valid OpClass",
                ),
                (
                    self.macro_id < 0,
                    lambda i: "seq and macro_id must be non-negative",
                ),
                (
                    np.diff(self.src_indptr) > 2,
                    lambda i: "a micro-op reads at most two data operands",
                ),
                (
                    is_memory & ~has_addr,
                    lambda i: (
                        f"{_OPCLASS_MEMBERS[opclass[i]].name} micro-op "
                        "needs mem_addr"
                    ),
                ),
                (
                    ~is_memory & has_addr,
                    lambda i: "non-memory micro-op must not carry mem_addr",
                ),
                (
                    (np.diff(self.asrc_indptr) > 0) & ~is_memory,
                    lambda i: "addr_src_regs only apply to memory micro-ops",
                ),
            )
        )
        # validate_stream, row-parallel: with every earlier row valid,
        # row i expects a SoM iff row i-1 ended its macro-op, and the
        # "previous macro id" it compares against is row i-1's.
        som, macro = self.som, self.macro_id
        expecting = np.concatenate(([True], self.eom[:-1]))
        previous = np.concatenate(([-1], macro[:-1]))
        _raise_first(
            (
                (
                    expecting & ~som,
                    lambda i: f"µop {i} should start a macro-op",
                ),
                (
                    expecting & (macro != previous + 1),
                    lambda i: (
                        f"macro id gap at µop {i}: "
                        f"{previous[i]} -> {macro[i]}"
                    ),
                ),
                (
                    ~expecting & som,
                    lambda i: f"unexpected SoM inside macro-op at {i}",
                ),
                (
                    ~expecting & (macro != previous),
                    lambda i: f"macro id changed mid-macro-op at µop {i}",
                ),
            )
        )
        if not self.eom[-1]:
            raise ValueError("stream ends inside a macro-op")

    def _check_layout(self) -> None:
        n = self.n
        for name in self._ROW_FIELDS:
            shape = getattr(self, name).shape
            if shape != (n,):
                raise ValueError(
                    f"workload column {name} has shape {shape}, "
                    f"expected ({n},)"
                )
        for indptr, values in (
            ("src_indptr", "src_values"),
            ("asrc_indptr", "asrc_values"),
        ):
            offsets = getattr(self, indptr)
            if (
                offsets.shape != (n + 1,)
                or offsets[0] != 0
                or offsets[-1] != len(getattr(self, values))
                or (np.diff(offsets) < 0).any()
            ):
                raise ValueError(f"workload column {indptr} is malformed")

    def to_uops(self) -> Tuple[MicroOp, ...]:
        """Build the :class:`MicroOp` view of the columns.

        Value-identical to the records the stream was built from.  Only
        the pure-Python simulator, the reference graph builder, report
        helpers and tests read it; the counter and span keep it visible
        in ``repro profile`` / ``repro bench`` if a production path
        starts to.
        """
        from repro.obs.observer import get_observer

        obs = get_observer()
        obs.counter("workload.materializations").inc()
        with obs.span("workload.materialize", uops=self.n):
            return self._to_uops()

    def _to_uops(self) -> Tuple[MicroOp, ...]:
        n = self.n
        src_values = self.src_values.tolist()
        asrc_values = self.asrc_values.tolist()
        si = self.src_indptr.tolist()
        ai = self.asrc_indptr.tolist()

        def optional(column):
            return [None if v < 0 else v for v in column.tolist()]

        columns = (
            range(n),
            self.macro_id.tolist(),
            self.som.tolist(),
            self.eom.tolist(),
            [_OPCLASS_MEMBERS[v] for v in self.opclass.tolist()],
            self.pc.tolist(),
            [tuple(src_values[a:b]) for a, b in zip(si, si[1:])],
            optional(self.dst_reg),
            optional(self.mem_addr),
            [tuple(asrc_values[a:b]) for a, b in zip(ai, ai[1:])],
            self.taken.tolist(),
            optional(self.target_pc),
        )
        names = tuple(f.name for f in dataclasses.fields(MicroOp))
        # Validated columns need no per-µop __post_init__: fill each
        # frozen record's __dict__ directly, with cyclic GC paused.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            uops = tuple(map(MicroOp.__new__, itertools.repeat(MicroOp, n)))
            for uop, values in zip(uops, zip(*columns)):
                object.__setattr__(uop, "__dict__", dict(zip(names, values)))
        finally:
            if gc_was_enabled:
                gc.enable()
        return uops

    def canonical_bytes(self) -> bytes:
        """Fixed-dtype, fixed-order byte encoding for fingerprinting."""
        chunks: List[bytes] = [b"workload-columns-v1\x00"]
        chunks.append(int(self.n).to_bytes(8, "little"))
        for name, dtype in self._CANONICAL_FIELDS:
            _canonical(chunks, name, getattr(self, name), dtype)
        return b"".join(chunks)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """A named, deterministic dynamic micro-op stream.

    The stream lives in :attr:`columns` (program/commit order), checked
    for the structural invariants the pipeline model and the graph
    builder both rely on.  There are two constructors and one
    representation:

    * ``Workload(name, uops, params)`` packs hand-built :class:`MicroOp`
      records (kernels, tests, version-1 archives) and keeps them as
      the view;
    * :meth:`from_columns` adopts columns built as arrays (the
      generator, phased composition, archives, :meth:`slice`).

    :attr:`uops`, iteration and indexing read the :class:`MicroOp` view,
    built once on first touch.  Length, :attr:`num_macro_ops`,
    :meth:`slice`, equality, hashing and pickling read columns only;
    two workloads are equal when their names, params and column values
    are.  Instances are immutable.
    """

    __slots__ = ("name", "columns", "params", "num_macro_ops", "_uops")

    def __init__(
        self,
        name: str,
        uops: Sequence[MicroOp],
        params: Tuple[Tuple[str, object], ...] = (),
    ) -> None:
        uops = tuple(uops)
        validate_stream(uops)
        self._adopt(name, WorkloadColumns.from_uops(uops), params, uops)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: WorkloadColumns,
        params: Tuple[Tuple[str, object], ...] = (),
    ) -> "Workload":
        """A workload over *columns*, after :meth:`WorkloadColumns.validate`."""
        columns.validate()
        workload = cls.__new__(cls)
        workload._adopt(name, columns, params, None)
        return workload

    def _adopt(self, name, columns, params, uops) -> None:
        # The compiled packer and the archive writer share these arrays
        # instead of copying them, so a held stream is read-only.
        for field, _dtype in columns._CANONICAL_FIELDS:
            getattr(columns, field).flags.writeable = False
        setattr_ = object.__setattr__
        setattr_(self, "name", name)
        setattr_(self, "columns", columns)
        #: Free-form provenance (generator parameters), for reports.
        setattr_(self, "params", params)
        setattr_(
            self,
            "num_macro_ops",
            int(columns.macro_id[-1]) + 1 if columns.n else 0,
        )
        setattr_(self, "_uops", uops)

    def __setattr__(self, name, value):
        raise AttributeError(f"Workload is immutable (cannot set {name!r})")

    @property
    def uops(self) -> Tuple[MicroOp, ...]:
        """The :class:`MicroOp` view, built from the columns on first
        touch.  Two threads racing to build it build equal tuples."""
        if self._uops is None:
            object.__setattr__(self, "_uops", self.columns.to_uops())
        return self._uops

    def __len__(self) -> int:
        return self.columns.n

    def __iter__(self):
        return iter(self.uops)

    def __getitem__(self, index: int) -> MicroOp:
        return self.uops[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return (
            self.name == other.name
            and self.params == other.params
            and self.columns.canonical_bytes()
            == other.columns.canonical_bytes()
        )

    def __hash__(self) -> int:
        return hash((self.name, self.params, self.columns.canonical_bytes()))

    def __repr__(self) -> str:
        return (
            f"Workload(name={self.name!r}, uops={len(self)}, "
            f"params={self.params!r})"
        )

    def __getstate__(self):
        # Ship the columns only; the MicroOp view is rebuilt on demand.
        return (self.name, self.columns, self.params)

    def __setstate__(self, state) -> None:
        name, columns, params = state
        self._adopt(name, columns, params, None)

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "Workload":
        """Extract a macro-op-aligned interval ``[start, stop)`` of µops.

        The bounds are snapped outward to macro-op boundaries so the
        resulting stream still satisfies the SoM/EoM invariants; sequence
        numbers and macro ids are re-based to zero.
        """
        n = len(self)
        if not n:
            raise ValueError("cannot slice an empty workload")
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        heads = np.flatnonzero(self.columns.som)
        if start < n:
            start = int(heads[np.searchsorted(heads, start, "right") - 1])
        after = np.searchsorted(heads, stop)
        stop = int(heads[after]) if after < len(heads) else n
        if start == stop:
            raise ValueError("empty interval after macro-op alignment")
        window = self.columns.window(start, stop)
        window.macro_id -= window.macro_id[0]
        return Workload.from_columns(
            name or f"{self.name}[{start}:{stop}]", window, self.params
        )


def validate_stream(uops: Sequence[MicroOp]) -> None:
    """Check the macro-op structural invariants of a dynamic stream.

    Raises:
        ValueError: on non-dense sequence numbers, macro-op id gaps, or
            broken SoM/EoM bracketing.
    """
    expecting_som = True
    previous_macro = -1
    for position, uop in enumerate(uops):
        if uop.seq != position:
            raise ValueError(
                f"non-dense seq at position {position}: got {uop.seq}"
            )
        if expecting_som:
            if not uop.som:
                raise ValueError(f"µop {position} should start a macro-op")
            if uop.macro_id != previous_macro + 1:
                raise ValueError(
                    f"macro id gap at µop {position}: "
                    f"{previous_macro} -> {uop.macro_id}"
                )
            previous_macro = uop.macro_id
        else:
            if uop.som:
                raise ValueError(f"unexpected SoM inside macro-op at {position}")
            if uop.macro_id != previous_macro:
                raise ValueError(
                    f"macro id changed mid-macro-op at µop {position}"
                )
        expecting_som = uop.eom
    if uops and not uops[-1].eom:
        raise ValueError("stream ends inside a macro-op")
