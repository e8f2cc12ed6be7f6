"""Trace-archive round-trip tests."""

import numpy as np
import pytest

from repro.common.config import CoreConfig, MicroarchConfig
from repro.common.events import EventType
from repro.core.generator import generate_rpstacks
from repro.graphmodel.builder import build_graph
from repro.simulator.machine import Machine
from repro.simulator.traceio import (
    TraceFormatError,
    load_result,
    save_result,
)
from tests.common.test_archive import NOT_ARCHIVES, write_not_archive
from tests.simulator.test_trace_format import GOLDEN_TRACE


@pytest.fixture(scope="module")
def archive(tiny_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "tiny"
    return save_result(tiny_result, path), tiny_result


def test_round_trip_workload(archive):
    path, original = archive
    loaded = load_result(path)
    assert loaded.workload.name == original.workload.name
    assert len(loaded.workload) == len(original.workload)
    for a, b in zip(loaded.workload, original.workload):
        assert a == b


def test_round_trip_records(archive):
    path, original = archive
    loaded = load_result(path)
    for a, b in zip(loaded.uops, original.uops):
        assert a.exec_charge == b.exec_charge
        assert a.fetch_charge == b.fetch_charge
        assert a.data_producers == b.data_producers
        assert a.store_barrier == b.store_barrier
        assert a.iq_freer == b.iq_freer
        assert a.t_commit == b.t_commit


def test_round_trip_metadata(archive):
    path, original = archive
    loaded = load_result(path)
    assert loaded.cycles == original.cycles
    assert loaded.stats == original.stats
    assert loaded.config.core == original.config.core
    assert loaded.config.latency == original.config.latency
    assert loaded.config.l2 == original.config.l2


def test_loaded_trace_builds_identical_graph(archive):
    path, original = archive
    loaded = load_result(path)
    graph_a = build_graph(original)
    graph_b = build_graph(loaded)
    assert graph_a.num_edges == graph_b.num_edges
    base = original.config.latency
    assert graph_a.longest_path_length(base) == graph_b.longest_path_length(
        base
    )


def test_loaded_trace_reproduces_rpstacks(archive):
    path, original = archive
    loaded = load_result(path)
    base = original.config.latency
    model_a = generate_rpstacks(build_graph(original), base)
    model_b = generate_rpstacks(build_graph(loaded), base)
    probe = base.with_overrides({EventType.L1D: 1, EventType.FP_ADD: 1})
    assert model_a.predict_cycles(probe) == model_b.predict_cycles(probe)


def test_non_default_structure_round_trips(tiny_workload, tmp_path):
    config = MicroarchConfig(
        core=CoreConfig(rob_size=64, branch_predictor="bimodal")
    )
    result = Machine(tiny_workload, config).simulate()
    loaded = load_result(save_result(result, tmp_path / "custom"))
    assert loaded.config.core.rob_size == 64
    assert loaded.config.core.branch_predictor == "bimodal"


def test_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, values=np.arange(3))
    with pytest.raises(TraceFormatError):
        load_result(path)


@pytest.mark.parametrize("kind", NOT_ARCHIVES)
def test_a_file_that_is_no_archive_is_a_format_error(tmp_path, kind):
    path = write_not_archive(tmp_path / "trace.npz", kind, GOLDEN_TRACE)
    with pytest.raises(TraceFormatError) as excinfo:
        load_result(path)
    assert str(excinfo.value) == f"{path} is not an .npz archive"
