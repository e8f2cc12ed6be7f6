"""Observability of the columnar paths: spans and counters added so the
record-materialisation tax stays visible."""

import pytest

from repro.graphmodel.builder import build_graph
from repro.obs.observer import Observer, use_observer
from repro.simulator.machine import Machine
from repro.workloads.suite import make_workload


def _result():
    return Machine(make_workload("gamess", 60)).simulate()


def test_materialisation_emits_span_and_counter():
    result = _result()
    obs = Observer(enabled=True)
    with use_observer(obs):
        result.columns.to_records()
        result.columns.to_records()
    assert obs.metrics.counter_value("trace.materializations") == 2
    totals = obs.tracer.totals_by_name()
    assert totals.get("columns.materialize", 0.0) > 0.0


def test_graph_build_emits_columns_span():
    result = _result()
    obs = Observer(enabled=True)
    with use_observer(obs):
        build_graph(result)
    totals = obs.tracer.totals_by_name()
    assert "graph.build" in totals


def test_disabled_observer_keeps_paths_silent():
    result = _result()
    # NULL path: no registry, no tracer — must simply not crash.
    records = result.columns.to_records()
    assert records


@pytest.mark.parametrize("gate", ["0", "auto"], ids=["python", "auto"])
def test_analysis_builds_no_trace_record(gate, monkeypatch, tmp_path):
    """Cold analysis, a re-simulation and a warm cache load read the
    trace as columns only: no record view is ever materialised."""
    from repro.common.events import EventType
    from repro.dse.pipeline import analyze
    from repro.runtime.cache import ArtifactCache

    if gate == "0":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    workload = make_workload("gamess", 60)
    cache = ArtifactCache(tmp_path / "cache")
    obs = Observer(enabled=True)
    with use_observer(obs):
        cold = analyze(workload, cache=cache)
        cold.simulate(
            cold.config.latency.with_overrides({EventType.L1D: 2})
        )
        analyze(workload, cache=cache)
    assert cache.hits == 1
    assert obs.metrics.counter_value("trace.materializations") == 0
    assert "columns.materialize" not in obs.tracer.totals_by_name()
