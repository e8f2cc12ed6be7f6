"""Columns-first workloads: the column validator, the view, the protocol.

``Workload.from_columns`` checks a stream with array operations instead
of building :class:`MicroOp` records.  It must reject exactly what
``MicroOp`` construction plus ``validate_stream`` reject, with the same
message for the same first offending µop; hypothesis mutates valid
generated streams to check that.  The rest pins the column-backed
protocol: equality, hashing, pickling and slicing read columns, and the
``MicroOp`` view is built once, only when asked for.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import EventType
from repro.dse.pipeline import analyze
from repro.isa.uop import MicroOp, OpClass, Workload, WorkloadColumns
from repro.obs.observer import Observer, use_observer
from repro.runtime.cache import ArtifactCache
from repro.simulator.machine import Machine
from repro.simulator.native import load_native_sim
from repro.simulator.traceio import result_digest
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.kernels import serial_chain
from repro.workloads.suite import make_workload

specs = st.builds(
    WorkloadSpec,
    name=st.just("mutated"),
    num_macro_ops=st.integers(min_value=1, max_value=40),
    p_load=st.floats(min_value=0.0, max_value=0.4),
    p_store=st.floats(min_value=0.0, max_value=0.2),
    p_fp_add=st.floats(min_value=0.0, max_value=0.1),
    p_branch=st.floats(min_value=0.0, max_value=0.2),
    p_fused_load_op=st.floats(min_value=0.0, max_value=1.0),
)


def _decode(columns: WorkloadColumns):
    """The MicroOp kwargs of every row, as a hand-written stream would
    spell them (an out-of-range opclass stays a plain int)."""
    si, sv = columns.src_indptr.tolist(), columns.src_values.tolist()
    ai, av = columns.asrc_indptr.tolist(), columns.asrc_values.tolist()

    def optional(value):
        return None if value < 0 else value

    rows = []
    for i in range(columns.n):
        opclass = int(columns.opclass[i])
        rows.append(
            dict(
                seq=i,
                macro_id=int(columns.macro_id[i]),
                som=bool(columns.som[i]),
                eom=bool(columns.eom[i]),
                opclass=OpClass(opclass) if 0 <= opclass <= 9 else opclass,
                pc=int(columns.pc[i]),
                src_regs=tuple(sv[si[i] : si[i + 1]]),
                dst_reg=optional(int(columns.dst_reg[i])),
                mem_addr=optional(int(columns.mem_addr[i])),
                addr_src_regs=tuple(av[ai[i] : ai[i + 1]]),
                taken=bool(columns.taken[i]),
                target_pc=optional(int(columns.target_pc[i])),
            )
        )
    return rows


def _build_from_uops(columns: WorkloadColumns):
    try:
        uops = [MicroOp(**row) for row in _decode(columns)]
        return Workload(name="m", uops=uops), None
    except ValueError as error:
        return None, str(error)


def _build_from_columns(columns: WorkloadColumns):
    try:
        return Workload.from_columns("m", columns), None
    except ValueError as error:
        return None, str(error)


def _insert(indptr: np.ndarray, values: np.ndarray, row: int, value: int):
    """Append *value* to CSR row *row*."""
    at = int(indptr[row + 1])
    grown = indptr.copy()
    grown[row + 1 :] += 1
    return grown, np.insert(values, at, value)


def _mutate(columns: WorkloadColumns, kind: str, row: int, value: int):
    c = columns
    if kind == "flip_som":
        som = c.som.copy()
        som[row] = not som[row]
        return dataclasses.replace(c, som=som)
    if kind == "flip_eom":
        eom = c.eom.copy()
        eom[row] = not eom[row]
        return dataclasses.replace(c, eom=eom)
    if kind == "macro_gap":
        macro = c.macro_id.copy()
        macro[row:] += 1 + value % 3
        return dataclasses.replace(c, macro_id=macro)
    if kind == "negative_macro":
        macro = c.macro_id.copy()
        macro[row] = -1 - value % 3
        return dataclasses.replace(c, macro_id=macro)
    if kind == "drop_mem_addr":
        mem = c.mem_addr.copy()
        mem[row] = -1
        return dataclasses.replace(c, mem_addr=mem)
    if kind == "extra_mem_addr":
        mem = c.mem_addr.copy()
        mem[row] = 64 * (1 + value)
        return dataclasses.replace(c, mem_addr=mem)
    if kind == "third_source":
        indptr, values = c.src_indptr, c.src_values
        for _ in range(3):
            indptr, values = _insert(indptr, values, row, value % 64)
        return dataclasses.replace(c, src_indptr=indptr, src_values=values)
    if kind == "address_source":
        indptr, values = _insert(c.asrc_indptr, c.asrc_values, row, value % 64)
        return dataclasses.replace(c, asrc_indptr=indptr, asrc_values=values)
    if kind == "bad_opclass":
        opclass = c.opclass.copy()
        opclass[row] = [10, 11, 99, -1][value % 4]
        return dataclasses.replace(c, opclass=opclass)
    if kind == "opclass":
        opclass = c.opclass.copy()
        opclass[row] = value % 10
        return dataclasses.replace(c, opclass=opclass)
    if kind == "truncate":
        return c.window(0, row + 1)
    raise AssertionError(kind)


MUTATIONS = (
    "flip_som",
    "flip_eom",
    "macro_gap",
    "negative_macro",
    "drop_mem_addr",
    "extra_mem_addr",
    "third_source",
    "address_source",
    "bad_opclass",
    "opclass",
    "truncate",
)


@settings(max_examples=300, deadline=None)
@given(
    spec=specs,
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_column_validator_matches_microop_checks(spec, seed, data):
    columns = generate(spec, seed=seed).columns
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        columns = _mutate(
            columns,
            data.draw(st.sampled_from(MUTATIONS)),
            data.draw(st.integers(min_value=0, max_value=columns.n - 1)),
            data.draw(st.integers(min_value=0, max_value=1000)),
        )
    from_uops, uops_error = _build_from_uops(columns)
    from_columns, columns_error = _build_from_columns(columns)
    assert uops_error == columns_error
    if uops_error is None:
        assert from_columns == from_uops
        assert from_columns.uops == from_uops.uops


class TestValidatorMessages:
    def columns(self):
        return serial_chain(OpClass.INT_ALU, 4).columns

    def test_first_offending_uop_wins(self):
        columns = self.columns()
        columns = _mutate(columns, "third_source", 3, 1)
        columns = _mutate(columns, "extra_mem_addr", 1, 1)
        with pytest.raises(ValueError, match="must not carry mem_addr"):
            Workload.from_columns("m", columns)

    def test_uop_checks_precede_stream_checks(self):
        columns = _mutate(self.columns(), "flip_som", 0, 0)
        columns = _mutate(columns, "bad_opclass", 3, 0)
        with pytest.raises(ValueError, match="10 is not a valid OpClass"):
            Workload.from_columns("m", columns)

    def test_microop_rejects_unknown_opclass(self):
        with pytest.raises(ValueError, match="12 is not a valid OpClass"):
            MicroOp(seq=0, macro_id=0, som=True, eom=True, opclass=12, pc=0)

    def test_malformed_layout_rejected(self):
        columns = self.columns()
        with pytest.raises(ValueError, match="src_indptr is malformed"):
            Workload.from_columns(
                "m",
                dataclasses.replace(columns, src_indptr=columns.src_indptr[:-1]),
            )
        with pytest.raises(ValueError, match="pc has shape"):
            Workload.from_columns(
                "m", dataclasses.replace(columns, pc=columns.pc[:-1])
            )


class TestColumnBackedWorkload:
    def test_generated_workload_has_no_view_until_asked(self):
        workload = make_workload("gamess", 50)
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            assert len(workload) == workload.columns.n
            assert workload.num_macro_ops == 50
            assert workload == make_workload("gamess", 50)
            hash(workload)
            pickle.loads(pickle.dumps(workload))
            workload.slice(10, 40)
            counters = obs.metrics.snapshot()["counters"]
            assert counters.get("workload.materializations", 0) == 0
            first = workload.uops
            assert workload.uops is first  # built once
            counters = obs.metrics.snapshot()["counters"]
            assert counters["workload.materializations"] == 1
        assert "workload.materialize" in obs.tracer.totals_by_name()

    def test_equality_reads_name_params_and_values(self):
        a = make_workload("mcf", 30)
        assert a == make_workload("mcf", 30)
        assert hash(a) == hash(make_workload("mcf", 30))
        assert a != make_workload("mcf", 31)
        assert a != make_workload("mcf", 30, seed=2)
        renamed = Workload.from_columns("other", a.columns, a.params)
        assert renamed != a
        # Built from MicroOps or from columns: the same workload.
        assert Workload(name=a.name, uops=a.uops, params=a.params) == a

    def test_pickle_ships_columns_only(self):
        workload = make_workload("leslie3d", 40)
        workload.uops  # build the view before pickling
        back = pickle.loads(pickle.dumps(workload))
        assert back == workload
        assert back._uops is None
        assert back.uops == workload.uops

    def test_immutable(self):
        workload = make_workload("gamess", 5)
        with pytest.raises(AttributeError):
            workload.name = "other"
        # The packer and the archive writer share the column arrays.
        with pytest.raises(ValueError, match="read-only"):
            workload.columns.pc[0] = 4

    @pytest.mark.parametrize("bounds", [(0, 1), (3, 17), (5, 5000), (40, 41)])
    def test_slice_matches_microop_slice(self, bounds):
        workload = make_workload("gamess", 60)
        piece = workload.slice(*bounds, name="piece")
        start, stop = bounds
        uops = workload.uops
        stop = min(stop, len(uops))
        while start > 0 and not uops[start].som:
            start -= 1
        while stop < len(uops) and not uops[stop].som:
            stop += 1
        base = uops[start].macro_id
        expected = tuple(
            dataclasses.replace(u, seq=i, macro_id=u.macro_id - base)
            for i, u in enumerate(uops[start:stop])
        )
        assert piece.uops == expected
        assert piece.params == workload.params
        assert piece.num_macro_ops == expected[-1].macro_id + 1

    def test_empty_workload(self):
        empty = Workload(name="empty", uops=())
        assert len(empty) == 0 and empty.num_macro_ops == 0
        assert Workload.from_columns("empty", empty.columns) == empty
        with pytest.raises(ValueError, match="empty workload"):
            empty.slice(0, 1)


requires_native = pytest.mark.skipif(
    load_native_sim() is None,
    reason="no C compiler available (or REPRO_NATIVE=0)",
)


def _view_builds(obs) -> int:
    return obs.metrics.counter_value("workload.materializations")


class TestNoViewOnProductionPaths:
    """The native analysis path, every warm load and a native
    re-simulation read the µop stream as columns only."""

    @requires_native
    def test_cold_native_analyze_and_resimulation(self):
        workload = make_workload("gamess", 150)
        obs = Observer(enabled=True)
        with use_observer(obs):
            session = analyze(workload)
            session.simulate(
                session.config.latency.with_overrides({EventType.L1D: 2})
            )
        assert obs.metrics.counter_value("sim.native_runs") == 2
        assert _view_builds(obs) == 0
        assert "workload.materialize" not in obs.tracer.totals_by_name()

    @pytest.mark.parametrize("gate", ["0", "auto"], ids=["python", "auto"])
    def test_warm_load(self, gate, monkeypatch, tmp_path):
        if gate == "0":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        workload = make_workload("mcf", 150)
        cache = ArtifactCache(tmp_path / "cache")
        analyze(workload, cache=cache)
        obs = Observer(enabled=True)
        with use_observer(obs):
            session = analyze(workload, cache=cache)
            session.simulate(session.config.latency)
        assert cache.hits == 1
        assert _view_builds(obs) == 0
        assert session.workload == workload

    @requires_native
    def test_warm_load_then_native_resimulation(self, tmp_path):
        workload = make_workload("leslie3d", 150)
        cache = ArtifactCache(tmp_path / "cache")
        cold = analyze(workload, cache=cache)
        halved = cold.config.latency.with_overrides({EventType.FP_ADD: 2})
        obs = Observer(enabled=True)
        with use_observer(obs):
            warm = analyze(workload, cache=cache)
            resimulated = warm.simulate(halved)
        assert _view_builds(obs) == 0
        assert result_digest(resimulated) == result_digest(
            cold.simulate(halved)
        )

    def test_python_simulator_builds_the_view_once(self):
        workload = make_workload("gamess", 60)
        obs = Observer(enabled=True)
        with use_observer(obs):
            machine = Machine(workload, native=False)
            machine.simulate()
            machine.simulate(
                machine.config.latency.with_overrides({EventType.L1D: 2})
            )
        assert _view_builds(obs) == 1
