"""Columnar trace representation: round-trips, laziness, digest parity.

:mod:`repro.simulator.columns` claims the struct-of-arrays form is a
lossless, canonical re-encoding of the per-µop ``UopTrace`` records:
``from_records`` → ``to_records`` must be the identity, the canonical
byte encoding must be a pure function of content, and a ``SimResult``
rebuilt from packed records must be indistinguishable (digest, records,
graph) from the simulator's own.  Hypothesis drives random workloads
through both directions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import baseline_config
from repro.isa.uop import Workload
from repro.simulator.columns import TraceColumns, columns_equal
from repro.simulator.core import simulate
from repro.simulator.trace import SimResult
from repro.simulator.traceio import result_digest
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.kernels import serial_chain
from repro.workloads.suite import make_workload

specs = st.builds(
    WorkloadSpec,
    name=st.just("columns"),
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


class TestTraceColumnsRoundTrip:
    def test_records_round_trip_exactly(self, tiny_result):
        columns = TraceColumns.from_records(tiny_result.uops)
        back = columns.to_records()
        assert tuple(back) == tiny_result.uops

    def test_round_trip_yields_python_scalars(self, tiny_result):
        """Materialised records must hold Python ints/bools, not numpy

        scalars — downstream equality and JSON encoding rely on it."""
        rec = TraceColumns.from_records(tiny_result.uops).to_records()[0]
        assert type(rec.t_commit) is int
        assert type(rec.mispredicted) is bool
        for event, units in rec.exec_charge:
            assert type(units) is int

    @settings(max_examples=10, deadline=None)
    @given(spec=specs, seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_from_records_to_records_identity(self, spec, seed):
        workload = generate(spec, seed=seed)
        result = simulate(workload, baseline_config(), native=False)
        columns = TraceColumns.from_records(result.uops)
        assert tuple(columns.to_records()) == result.uops
        # And re-encoding the round-tripped records is byte-stable.
        again = TraceColumns.from_records(columns.to_records())
        assert columns_equal(columns, again)
        assert columns.canonical_bytes() == again.canonical_bytes()

    def test_empty_columns(self):
        columns = TraceColumns.from_records(())
        assert columns.n == 0
        assert columns.to_records() == []
        # Empty traces still get a stable, non-empty canonical encoding.
        assert columns.canonical_bytes() == TraceColumns.from_records(
            ()
        ).canonical_bytes()


class TestWorkloadColumnsRoundTrip:
    @pytest.mark.parametrize("name", ["gamess", "mcf", "libquantum"])
    def test_uops_round_trip_exactly(self, name):
        workload = make_workload(name, 60)
        assert workload.columns.to_uops() == workload.uops

    def test_memoised_per_workload(self):
        workload = make_workload("gamess", 20)
        assert workload.columns is workload.columns

    def test_distinct_workloads_distinct_bytes(self):
        a = make_workload("gamess", 20).columns
        b = make_workload("mcf", 20).columns
        assert a.canonical_bytes() != b.canonical_bytes()


class TestSimResultLaziness:
    def test_columns_result_materialises_records_lazily(self, tiny_result):
        columns = TraceColumns.from_records(tiny_result.uops)
        result = SimResult(
            workload=tiny_result.workload,
            config=tiny_result.config,
            cycles=tiny_result.cycles,
            stats=tiny_result.stats,
            columns=columns,
        )
        assert result._uops is None
        assert result.num_uops == columns.n  # no materialisation needed
        assert result._uops is None
        assert result.uops == tiny_result.uops  # lazy, then cached
        assert result._uops is not None

    def test_requires_records_or_columns(self, tiny_result):
        with pytest.raises(TypeError):
            SimResult(
                workload=tiny_result.workload,
                config=tiny_result.config,
                cycles=0,
            )

    def test_pickle_round_trip(self, tiny_result):
        import pickle

        columns = TraceColumns.from_records(tiny_result.uops)
        result = SimResult(
            workload=tiny_result.workload,
            config=tiny_result.config,
            cycles=tiny_result.cycles,
            stats=tiny_result.stats,
            columns=columns,
        )
        back = pickle.loads(pickle.dumps(result))
        assert back.cycles == result.cycles
        assert back.uops == tiny_result.uops
        assert result_digest(back) == result_digest(result)


class TestDigestParity:
    @settings(max_examples=10, deadline=None)
    @given(spec=specs, seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_digest_agrees_between_records_and_columns(self, spec, seed):
        """digest(SimResult from columns) == digest(SimResult from records)."""
        workload = generate(spec, seed=seed)
        records_result = simulate(workload, baseline_config(), native=False)
        columns_result = SimResult(
            workload=records_result.workload,
            config=records_result.config,
            cycles=records_result.cycles,
            stats=records_result.stats,
            columns=TraceColumns.from_records(records_result.uops),
        )
        assert result_digest(columns_result) == result_digest(
            records_result
        )

    def test_empty_workload_digest_is_stable(self):
        empty = Workload(name="empty", uops=())

        def fresh(source):
            return SimResult(
                workload=empty,
                config=baseline_config(),
                cycles=0,
                stats={},
                **source,
            )

        from_records = fresh({"columns": TraceColumns.from_records(())})
        from_columns = fresh({"columns": TraceColumns.from_records(())})
        assert result_digest(from_records) == result_digest(from_columns)
        # Stable across processes by construction: pure function of bytes.
        assert result_digest(from_records) == result_digest(
            fresh({"columns": TraceColumns.from_records(())})
        )


class TestStatsCanonicalisation:
    def test_numpy_stats_values_do_not_change_digest(self):
        workload = serial_chain(length=6)
        base = simulate(workload, baseline_config(), native=False)
        numpy_stats = {
            key: np.int64(value) for key, value in base.stats.items()
        }
        twin = SimResult(
            workload=base.workload,
            config=base.config,
            cycles=base.cycles,
            stats=numpy_stats,
            columns=TraceColumns.from_records(base.uops),
        )
        assert twin.stats == base.stats
        assert all(type(v) is int for v in twin.stats.values())
        assert result_digest(twin) == result_digest(base)

    def test_non_string_stats_keys_are_canonicalised(self, tiny_result):
        result = SimResult(
            workload=tiny_result.workload,
            config=tiny_result.config,
            cycles=tiny_result.cycles,
            stats={1: 2, "x": 3},
            columns=TraceColumns.from_records(tiny_result.uops),
        )
        assert result.stats == {"1": 2, "x": 3}
        result_digest(result)  # must not raise
