"""Analysis-session facade tests."""

import pytest

from repro.common.config import CoreConfig, MicroarchConfig
from repro.common.events import EventType
from repro.core.native import load_native
from repro.dse.pipeline import analyze
from repro.obs.observer import Observer
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


@pytest.mark.parametrize("gate", ["auto", "0"])
def test_warm_load_attributes_baseline_setup(
    tiny_workload, tmp_path, monkeypatch, gate
):
    """A warm load builds CP1, FMT and re-evaluation under a
    ``baselines.init`` span nested in ``cache.load``, like a cold run."""
    monkeypatch.setenv("REPRO_NATIVE", gate)
    native = load_native() is not None
    if gate == "0":
        assert not native
    cache = ArtifactCache(tmp_path / "cache")
    for outcome in ("miss", "hit"):
        obs = Observer(enabled=True, progress_stream=None)
        analyze(tiny_workload, cache=cache, obs=obs)
        spans = obs.tracer.spans
        (load,) = [s for s in spans if s.name == "cache.load"]
        (init,) = [s for s in spans if s.name == "baselines.init"]
        assert load.attrs["outcome"] == outcome
        assert init.attrs["native"] is native
    assert cache.hits == 1
    assert init.parent_id == load.span_id
