"""Model serialisation round-trip tests."""

import json

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
from tests.common.test_archive import (
    BAD_METAS,
    NOT_ARCHIVES,
    flip_member,
    rewrite_meta,
    write_bad_meta,
    write_not_archive,
)
from tests.simulator.test_trace_format import (
    GOLDEN_MODEL,
    GOLDEN_SEED,
    GOLDEN_SPEC,
    GOLDEN_TRACE,
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


@pytest.mark.parametrize("kind", NOT_ARCHIVES)
def test_a_file_that_is_no_archive_is_a_format_error(tmp_path, kind):
    path = write_not_archive(tmp_path / "m.npz", kind, GOLDEN_MODEL)
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == f"{path} is not an .npz archive"


def test_a_flipped_member_is_a_format_error(tmp_path):
    path = flip_member(GOLDEN_MODEL, tmp_path / "flipped.npz", "stacks")
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(
        f"{path}: member stacks.npy is corrupt: "
    )


@pytest.mark.parametrize("kind", sorted(BAD_METAS))
def test_metadata_that_is_no_json_object_names_file(tmp_path, kind):
    path = write_bad_meta(GOLDEN_MODEL, tmp_path / "m.npz", kind)
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    _raw, message = BAD_METAS[kind]
    assert str(excinfo.value).startswith(f"{path}: member meta_json {message}")


def test_loads_from_given_bytes_and_names_the_path(tmp_path):
    path = tmp_path / "named.npz"
    golden = load_model(GOLDEN_MODEL)
    loaded = load_model(path, data=GOLDEN_MODEL.read_bytes())
    assert loaded.content_digest() == golden.content_digest()
    flipped = flip_member(GOLDEN_MODEL, tmp_path / "flipped.npz", "stacks")
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path, data=flipped.read_bytes())
    assert str(excinfo.value).startswith(f"{path}: member stacks.npy ")


@pytest.mark.parametrize("version", [1, 2, 99])
def test_another_version_names_file_and_version(tmp_path, version):
    path = rewrite_meta(
        GOLDEN_MODEL, tmp_path / "other.npz", format_version=version
    )
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == (
        f"{path}: model format version {version}; "
        "this build reads version 3"
    )


@pytest.mark.parametrize("key", ["num_uops", "segment_sizes"])
def test_missing_metadata_names_file_and_key(tmp_path, key):
    path = rewrite_meta(GOLDEN_MODEL, tmp_path / "m.npz", drop=(key,))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == (
        f"{path} is not an RpStacks model file: it has no '{key}'"
    )


def test_golden_trace_is_not_a_model():
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(GOLDEN_TRACE)
    assert str(GOLDEN_TRACE) in str(excinfo.value)


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


def test_golden_model_matches_fresh_generation():
    assert _format_version(GOLDEN_MODEL) == 3
    golden = load_model(GOLDEN_MODEL)
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
