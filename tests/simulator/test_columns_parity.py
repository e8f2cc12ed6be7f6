"""Columns-vs-records parity: the full differential oracle.

The columnar fast path (native simulate -> ``TraceColumns`` with zero
per-row Python work) and the legacy record path (Python simulator, or
lazy materialisation of columns) must be *indistinguishable* end to
end: byte-identical ``result_digest``, identical dependence graphs out
of ``build_graph``, and bit-identical RpStacks predictions — across
the whole workload suite, every stress kernel, and both the in-memory
and the archive-round-trip (v2 columnar load) representations.

CI runs this module under both ``REPRO_NATIVE`` settings; the explicit
``native=True/False`` arguments here pin the two sides of each
differential regardless of the ambient default.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.common.events import EventType
from repro.core.generator import generate_rpstacks
from repro.graphmodel.builder import build_graph
from repro.simulator.core import simulate
from repro.simulator.native import load_native_sim
from repro.simulator.traceio import (
    load_result,
    result_digest,
    save_result,
)
from repro.workloads.kernels import STRESS_KERNELS
from repro.workloads.suite import make_workload, suite_names

requires_native = pytest.mark.skipif(
    load_native_sim() is None,
    reason="no C compiler available (or REPRO_NATIVE=0)",
)

#: Dynamic length for the suite sweep (graphs + RpStacks per workload).
MACROS = 100


def _graphs_identical(a, b) -> bool:
    return (
        a.num_uops == b.num_uops
        and np.array_equal(a.edge_src, b.edge_src)
        and np.array_equal(a.edge_dst, b.edge_dst)
        and np.array_equal(a.events, b.events)
        and np.array_equal(a.units, b.units)
    )


def _assert_full_parity(workload, config, tmp_path) -> None:
    """Native-columnar vs Python-records, in memory and through disk."""
    columnar = simulate(workload, config, native=True)
    records = simulate(workload, config, native=False)

    # The native result was produced without materialising records.
    assert columnar._uops is None

    # 1. Byte-identical canonical digests.
    assert result_digest(columnar) == result_digest(records)

    # 2. Identical dependence graphs (exact edge arrays, not summaries).
    graph_c = build_graph(columnar)
    graph_r = build_graph(records)
    assert _graphs_identical(graph_c, graph_r)

    # 3. Bit-identical RpStacks predictions.
    base = config.latency
    model_c = generate_rpstacks(graph_c, base)
    model_r = generate_rpstacks(graph_r, base)
    for probe in (
        base,
        base.with_overrides({EventType.L1D: 1, EventType.FP_ADD: 1}),
        base.with_overrides({EventType.MEM_D: 400, EventType.BR_MISP: 30}),
    ):
        assert model_c.predict_cycles(probe) == model_r.predict_cycles(
            probe
        )

    # 4. The archive round-trip (v2 columnar load path) changes nothing.
    loaded = load_result(save_result(columnar, tmp_path / "parity.npz"))
    assert result_digest(loaded) == result_digest(records)
    assert _graphs_identical(build_graph(loaded), graph_r)


@requires_native
class TestSuiteParity:
    """All 12 suite workloads through the full columnar differential."""

    @pytest.mark.parametrize("name", suite_names())
    def test_workload_parity(self, name, tmp_path):
        workload = make_workload(name, MACROS)
        _assert_full_parity(workload, baseline_config(), tmp_path)


@requires_native
class TestStressKernelParity:
    """All six stress kernels through the full columnar differential."""

    @pytest.mark.parametrize("kernel", sorted(STRESS_KERNELS))
    def test_kernel_parity(self, kernel, tmp_path):
        _assert_full_parity(
            STRESS_KERNELS[kernel](), baseline_config(), tmp_path
        )
