"""Model serialisation round-trip tests."""

import json
import pathlib

import numpy as np
import pytest

from repro.common.config import LatencyConfig, baseline_config
from repro.common.events import NUM_EVENTS, EventType
from repro.core.generator import generate_rpstacks
from repro.core.io import ModelFormatError, load_model, save_model
from repro.core.model import RpStacksModel
from repro.graphmodel.builder import build_graph
from repro.simulator.core import simulate
from repro.workloads.generator import generate
from tests.simulator.test_trace_format import (
    GOLDEN_SEED,
    GOLDEN_SPEC,
    GOLDEN_V1,
    GOLDEN_V2,
)

#: Written by the format-2 writer: the model of GOLDEN_SPEC at
#: GOLDEN_SEED, at segment length 40 (four segments).
GOLDEN_MODEL_V2 = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_model_v2.npz"
)


@pytest.fixture
def model():
    rng = np.random.default_rng(0)
    segments = [rng.integers(0, 9, (4, NUM_EVENTS)).astype(float),
                rng.integers(0, 9, (2, NUM_EVENTS)).astype(float)]
    baseline = LatencyConfig().with_overrides({EventType.L1D: 2})
    return RpStacksModel(segments, baseline=baseline, num_uops=777)


def test_round_trip_preserves_predictions(model, tmp_path):
    path = save_model(model, tmp_path / "model")
    loaded = load_model(path)
    for overrides in ({}, {EventType.FP_MUL: 1}, {EventType.MEM_D: 40}):
        latency = LatencyConfig().with_overrides(overrides)
        assert loaded.predict_cycles(latency) == model.predict_cycles(
            latency
        )


def test_round_trip_preserves_structure(model, tmp_path):
    loaded = load_model(save_model(model, tmp_path / "m"))
    assert loaded.num_uops == model.num_uops
    assert loaded.num_segments == model.num_segments
    assert loaded.baseline == model.baseline
    for a, b in zip(loaded.segment_stacks, model.segment_stacks):
        assert np.array_equal(a, b)


def test_npz_suffix_appended(model, tmp_path):
    path = save_model(model, tmp_path / "bare")
    assert path.suffix == ".npz"
    assert path.exists()


def test_suffix_follows_the_trace_rule(model, tmp_path):
    path = save_model(model, tmp_path / "m.dat")
    assert path == tmp_path / "m.npz"
    assert path.exists()
    assert not (tmp_path / "m.dat.npz").exists()


def test_parent_directories_created(model, tmp_path):
    path = save_model(model, tmp_path / "deep" / "nested" / "m.npz")
    assert path.exists()


def test_rejects_non_model_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, data=np.zeros(3))
    with pytest.raises(ModelFormatError, match="not an RpStacks model"):
        load_model(path)


@pytest.mark.parametrize("trace", [GOLDEN_V1, GOLDEN_V2], ids=["v1", "v2"])
def test_golden_trace_is_not_a_model(trace):
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(trace)
    assert str(trace) in str(excinfo.value)


def test_rejects_tampered_event_count(model, tmp_path):
    import json

    path = save_model(model, tmp_path / "m")
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta["num_events"] = NUM_EVENTS + 1
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)
    with pytest.raises(ModelFormatError, match="taxonomy mismatch"):
        load_model(path)


@pytest.mark.parametrize("bad", [0.5, float("nan"), -5.0])
def test_rejects_tampered_stack_values(model, tmp_path, bad):
    path = save_model(model, tmp_path / "m")
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    # The first row of segment 1 in the packed stacks member.
    row = len(model.segment_stacks[0])
    arrays["stacks"][row, EventType.L1D] = bad
    np.savez(path, **arrays)
    with pytest.raises(ModelFormatError, match="non-negative integers") as exc:
        load_model(path)
    assert str(path) in str(exc.value)


def test_real_model_round_trip(gamess_session, tmp_path):
    model = gamess_session.rpstacks
    loaded = load_model(save_model(model, tmp_path / "gamess"))
    base = gamess_session.config.latency
    assert loaded.predict_cpi(base) == pytest.approx(
        model.predict_cpi(base)
    )
    probe = base.with_overrides({EventType.L1D: 1, EventType.FP_ADD: 1})
    assert loaded.predict_cycles(probe) == pytest.approx(
        model.predict_cycles(probe)
    )


def _format_version(path):
    with np.load(path) as archive:
        return json.loads(bytes(archive["meta_json"]).decode())[
            "format_version"
        ]


def test_writer_packs_segments_into_one_member(model, tmp_path):
    path = save_model(model, tmp_path / "m")
    with np.load(path) as archive:
        assert sorted(archive.files) == [
            "baseline_cycles", "meta_json", "stacks"
        ]
    assert _format_version(path) == 3


def test_golden_v2_model_loads_and_resaves_bit_identically(tmp_path):
    assert _format_version(GOLDEN_MODEL_V2) == 2
    golden = load_model(GOLDEN_MODEL_V2)
    result = simulate(
        generate(GOLDEN_SPEC, seed=GOLDEN_SEED), baseline_config(),
        native=False,
    )
    fresh = generate_rpstacks(
        build_graph(result), baseline_config().latency, segment_length=40
    )
    assert golden.num_segments == fresh.num_segments == 4
    assert golden.content_digest() == fresh.content_digest()
    assert golden.baseline == fresh.baseline
    assert golden.num_uops == fresh.num_uops

    resaved = save_model(golden, tmp_path / "v3")
    assert _format_version(resaved) == 3
    upgraded = load_model(resaved)
    assert upgraded.content_digest() == golden.content_digest()
    assert upgraded.baseline == golden.baseline
    assert upgraded.num_uops == golden.num_uops
    assert upgraded.stats == golden.stats
