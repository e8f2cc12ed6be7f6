"""Analysis-session facade tests."""

import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.config import CoreConfig, MicroarchConfig
from repro.common.events import EventType
from repro.core.native import load_native
from repro.dse import pipeline
from repro.dse.pipeline import analyze
from repro.obs.observer import Observer, use_observer
from repro.runtime.cache import ArtifactCache


def test_session_components_are_consistent(tiny_session):
    session = tiny_session
    assert session.baseline_result.workload is session.workload
    assert session.graph.num_uops == len(session.workload)
    assert session.rpstacks.num_uops == len(session.workload)
    assert session.cp1.num_uops == len(session.workload)


def test_baseline_cpi_matches_simulation(tiny_session):
    assert tiny_session.baseline_cpi == tiny_session.baseline_result.cpi


def test_predictor_registry(tiny_session):
    predictors = tiny_session.predictors()
    assert set(predictors) == {"rpstacks", "cp1", "fmt"}
    base = tiny_session.config.latency
    for predictor in predictors.values():
        assert predictor.predict_cycles(base) > 0


def test_all_predictors_close_at_baseline(tiny_session):
    base = tiny_session.config.latency
    truth = tiny_session.baseline_result.cycles
    for name, predictor in tiny_session.predictors().items():
        predicted = predictor.predict_cycles(base)
        assert predicted == pytest.approx(truth, rel=0.10), name


def test_simulate_delegates_to_machine(tiny_session):
    latency = tiny_session.config.latency.with_overrides(
        {EventType.L1D: 2}
    )
    result = tiny_session.simulate(latency)
    assert result.config.latency == latency


def test_structure_config_propagates(tiny_workload):
    config = MicroarchConfig(core=CoreConfig(branch_predictor="taken"))
    session = analyze(tiny_workload, config=config)
    assert session.config.core.branch_predictor == "taken"
    # A weaker predictor means at least as many mispredictions.
    default = analyze(tiny_workload)
    assert (
        session.baseline_result.stats["branch_mispredictions"]
        >= default.baseline_result.stats["branch_mispredictions"]
    )


def test_generation_parameters_forwarded(tiny_workload):
    session = analyze(tiny_workload, segment_length=40, max_paths=4)
    expected_segments = (len(tiny_workload) + 39) // 40
    assert session.rpstacks.num_segments == expected_segments
    for stacks in session.rpstacks.segment_stacks:
        assert stacks.shape[0] <= 4


def _span_names(obs):
    return [s.name for s in obs.tracer.spans]


@pytest.mark.parametrize("gate", ["auto", "0"])
def test_warm_hit_builds_graph_and_baselines_on_first_access(
    tiny_workload, tmp_path, monkeypatch, gate
):
    """A hit reads two archives and builds nothing; the first ``cp1``
    access builds the graph and then the predictors, under the observer
    ambient at that access; a second access builds nothing."""
    monkeypatch.setenv("REPRO_NATIVE", gate)
    native = load_native() is not None
    if gate == "0":
        assert not native
    cache = ArtifactCache(tmp_path / "cache")
    analyze(tiny_workload, cache=cache)
    obs = Observer(enabled=True, progress_stream=None)
    session = analyze(tiny_workload, cache=cache, obs=obs)
    assert cache.hits == 1
    assert "cache.load" in _span_names(obs)
    assert "graph.build" not in _span_names(obs)
    assert "baselines.init" not in _span_names(obs)

    first = Observer(enabled=True, progress_stream=None)
    with use_observer(first):
        session.cp1
    assert _span_names(first) == ["graph.build", "baselines.init"]
    (init,) = [s for s in first.tracer.spans if s.name == "baselines.init"]
    assert init.attrs["native"] is native

    second = Observer(enabled=True, progress_stream=None)
    with use_observer(second):
        session.cp1
        session.fmt
        session.reeval
        session.graph
    assert _span_names(second) == []


def test_first_access_race_builds_each_part_once(
    tiny_workload, tmp_path, monkeypatch
):
    """Eight threads racing the first ``cp1`` access of a fresh hit
    build the graph and CP1 once, and all get the same predictor."""
    cache = ArtifactCache(tmp_path / "cache")
    analyze(tiny_workload, cache=cache)
    session = analyze(tiny_workload, cache=cache)
    calls = {"build_graph": 0, "CP1Predictor": 0}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            time.sleep(0.01)  # widen the race window
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        pipeline, "build_graph", counted("build_graph", pipeline.build_graph)
    )
    monkeypatch.setattr(
        pipeline, "CP1Predictor",
        counted("CP1Predictor", pipeline.CP1Predictor),
    )
    threads = 8
    barrier = threading.Barrier(threads)

    def race(_):
        barrier.wait(timeout=60)
        return session.cp1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            got = list(pool.map(race, range(threads), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert calls == {"build_graph": 1, "CP1Predictor": 1}
    assert all(predictor is got[0] for predictor in got)


def test_unbuilt_session_pickles_and_builds_like_a_cold_one(
    tiny_workload, tmp_path
):
    cache = ArtifactCache(tmp_path / "cache")
    cold = analyze(tiny_workload, cache=cache)
    restored = pickle.loads(pickle.dumps(analyze(tiny_workload, cache=cache)))
    assert cache.hits == 1
    obs = Observer(enabled=True, progress_stream=None)
    with use_observer(obs):
        predictors = restored.all_predictors()
    assert _span_names(obs) == ["graph.build", "baselines.init"]
    expected = cold.all_predictors()
    base = cold.config.latency
    points = [
        base,
        base.with_overrides({EventType.L1D: 1, EventType.FP_ADD: 1}),
        base.with_overrides({EventType.MEM_D: 2 * base[EventType.MEM_D]}),
    ]
    for name, predictor in expected.items():
        for point in points:
            assert predictors[name].predict_cycles(
                point
            ) == predictor.predict_cycles(point), name
    assert restored.graph.num_edges == cold.graph.num_edges
