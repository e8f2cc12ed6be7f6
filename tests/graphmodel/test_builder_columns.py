"""Columnar graph builder vs the per-record reference implementation.

``build_graph`` builds from trace columns and claims byte-identical
output to :class:`DependenceGraphBuilder` — same edges in the same
order with the same packed charge rows — for every workload and every
ablation-option setting.  The reference builder is kept in the tree
exactly so this suite can hold that claim down.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.graphmodel.builder import (
    BuilderOptions,
    DependenceGraphBuilder,
    build_graph,
)
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.simulator.core import simulate
from repro.workloads.kernels import STRESS_KERNELS
from repro.workloads.suite import make_workload, suite_names

MACROS = 80

_OPTION_FLAGS = sorted(
    field.name for field in dataclasses.fields(BuilderOptions)
)


def _assert_graphs_identical(columnar, reference) -> None:
    assert columnar.num_uops == reference.num_uops
    assert np.array_equal(columnar.edge_src, reference.edge_src)
    assert np.array_equal(columnar.edge_dst, reference.edge_dst)
    assert np.array_equal(columnar.events, reference.events)
    assert np.array_equal(columnar.units, reference.units)


def _compare(result, options=None) -> None:
    columnar = build_graph(result, options=options)
    reference = DependenceGraphBuilder(result, options=options).build()
    _assert_graphs_identical(columnar, reference)


class TestSuiteEquality:
    @pytest.mark.parametrize("name", suite_names())
    def test_workload_graphs_identical(self, name):
        workload = make_workload(name, MACROS)
        _compare(simulate(workload, baseline_config()))


class TestStressKernelEquality:
    @pytest.mark.parametrize("kernel", sorted(STRESS_KERNELS))
    def test_kernel_graphs_identical(self, kernel):
        _compare(simulate(STRESS_KERNELS[kernel](), baseline_config()))


class TestAblationEquality:
    """Every single-flag ablation produces the same graph on both paths."""

    @pytest.fixture(scope="class")
    def mixed_result(self):
        return simulate(make_workload("gamess", MACROS), baseline_config())

    @pytest.mark.parametrize("flag", _OPTION_FLAGS)
    def test_single_flag_off(self, mixed_result, flag):
        options = BuilderOptions(**{flag: False})
        _compare(mixed_result, options=options)

    def test_all_flags_off(self, mixed_result):
        options = BuilderOptions(
            **{flag: False for flag in _OPTION_FLAGS}
        )
        _compare(mixed_result, options=options)


class TestWideAddressGeneration:
    """Micro-ops with three address sources (unsupported by the native

    pack, fine for the Python simulator) must still build identically
    through the columnar path — its CSR producer layout is general."""

    @pytest.fixture(scope="class")
    def wide_agen_result(self):
        uops = []
        pc = 0x1000
        for i in range(24):
            if i % 3 == 0:
                uops.append(
                    MicroOp(
                        seq=i,
                        macro_id=i,
                        som=True,
                        eom=True,
                        opclass=OpClass.LOAD,
                        pc=pc + i * 4,
                        dst_reg=i % 8,
                        mem_addr=0x8000 + (i * 64) % 4096,
                        addr_src_regs=(1 + i % 4, 9, 17),
                    )
                )
            else:
                uops.append(
                    MicroOp(
                        seq=i,
                        macro_id=i,
                        som=True,
                        eom=True,
                        opclass=OpClass.INT_ALU,
                        pc=pc + i * 4,
                        src_regs=(i % 8, (i + 3) % 8),
                        dst_reg=9 if i % 2 else 17,
                    )
                )
        workload = Workload(name="wide-agen", uops=tuple(uops))
        return simulate(workload, baseline_config(), native=False)

    def test_graphs_identical(self, wide_agen_result):
        _compare(wide_agen_result)

    def test_graphs_identical_without_address_path(self, wide_agen_result):
        _compare(
            wide_agen_result, options=BuilderOptions(address_path=False)
        )


class TestDispatch:
    def test_build_graph_uses_columnar_output(self, tiny_result):
        _assert_graphs_identical(
            build_graph(tiny_result),
            DependenceGraphBuilder(tiny_result).build(),
        )
