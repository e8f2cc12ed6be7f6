"""Property-based trace-archive round-trips.

:func:`save_result`/:func:`load_result` claim a lossless round-trip:
the loaded result must be value-identical to the saved one — workload
stream, records, charges, producers, witnesses, timestamps, stats and
configuration.  Hypothesis drives random simulated workloads through
the archive and compares canonical digests; the degenerate shapes
(empty trace, single µop) get explicit cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import baseline_config
from repro.isa.uop import Workload
from repro.simulator.columns import TraceColumns
from repro.simulator.core import simulate
from repro.simulator.trace import SimResult
from repro.simulator.traceio import (
    load_result,
    result_digest,
    save_result,
)
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.kernels import serial_chain

specs = st.builds(
    WorkloadSpec,
    name=st.just("roundtrip"),
    num_macro_ops=st.integers(min_value=5, max_value=60),
    p_load=st.floats(min_value=0.0, max_value=0.3),
    p_store=st.floats(min_value=0.0, max_value=0.15),
    p_fp_add=st.floats(min_value=0.0, max_value=0.2),
    p_int_div=st.floats(min_value=0.0, max_value=0.05),
    p_branch=st.floats(min_value=0.0, max_value=0.2),
    p_fused_load_op=st.floats(min_value=0.0, max_value=1.0),
    working_set_bytes=st.sampled_from([4096, 262144]),
    code_footprint_bytes=st.sampled_from([256, 8192]),
)


def _round_trip(result: SimResult, tmp_path) -> SimResult:
    return load_result(save_result(result, tmp_path / "archive"))


class TestRoundTripProperties:
    @settings(max_examples=12, deadline=None)
    @given(spec=specs, seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_round_trip_is_bit_identical(
        self, spec, seed, tmp_path_factory
    ):
        workload = generate(spec, seed=seed)
        result = simulate(workload, baseline_config())
        loaded = _round_trip(
            result, tmp_path_factory.mktemp("roundtrip")
        )
        assert loaded.workload == result.workload
        assert loaded.uops == result.uops
        assert result_digest(loaded) == result_digest(result)

    @settings(max_examples=12, deadline=None)
    @given(spec=specs, seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_digest_is_stable_across_round_trips(
        self, spec, seed, tmp_path_factory
    ):
        workload = generate(spec, seed=seed)
        result = simulate(workload, baseline_config())
        tmp = tmp_path_factory.mktemp("double")
        once = _round_trip(result, tmp)
        twice = _round_trip(once, tmp)
        assert result_digest(twice) == result_digest(result)


class TestEdgeShapes:
    def test_empty_trace_round_trips(self, tmp_path):
        result = SimResult(
            workload=Workload(name="empty", uops=()),
            config=baseline_config(),
            cycles=0,
            columns=TraceColumns.from_records(()),
            stats={},
        )
        loaded = _round_trip(result, tmp_path)
        assert len(loaded.workload) == 0
        assert loaded.uops == ()
        assert loaded.cycles == 0
        assert result_digest(loaded) == result_digest(result)

    def test_single_uop_round_trips(self, tmp_path):
        workload = serial_chain(length=1)
        result = simulate(workload, baseline_config())
        loaded = _round_trip(result, tmp_path)
        assert len(loaded.uops) == 1
        assert loaded.uops == result.uops
        assert result_digest(loaded) == result_digest(result)

    def test_digest_detects_timing_changes(self):
        """The digest must not be blind to any behaviour field."""
        from repro.common.events import EventType

        workload = serial_chain(length=8)
        base = simulate(workload, baseline_config())
        slower = simulate(
            workload,
            baseline_config().with_latency_overrides(
                {EventType.FP_ADD: 9}
            ),
        )
        assert result_digest(base) != result_digest(slower)
