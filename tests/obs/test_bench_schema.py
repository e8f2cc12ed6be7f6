"""Schema round-trip properties for the BENCH_<scenario>.json store."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.regress import Verdict, compare_records
from repro.obs.schema import (
    MAX_RUNS,
    SCHEMA_VERSION,
    BenchRecord,
    BenchSchemaError,
    TrajectoryFile,
    trajectory_path,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=20
)
_seconds = st.floats(
    min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def bench_records(draw):
    return BenchRecord(
        scenario=draw(_names),
        tier=draw(st.sampled_from(["full", "ci"])),
        created="2026-08-09T00:00:00+00:00",
        scale=draw(
            st.dictionaries(
                _names, st.integers(1, 10**6), max_size=3
            )
        ),
        repeats=draw(st.integers(1, 10)),
        warmup=draw(st.integers(0, 3)),
        samples=draw(st.lists(_seconds, min_size=1, max_size=8)),
        stages=draw(st.dictionaries(_names, _seconds, max_size=5)),
        counters=draw(
            st.dictionaries(
                _names, st.floats(0, 1e9, allow_nan=False), max_size=5
            )
        ),
        aux=draw(
            st.dictionaries(
                _names, st.floats(0, 1e9, allow_nan=False), max_size=3
            )
        ),
        digest=draw(st.none() | st.text("0123456789abcdef", min_size=8,
                                        max_size=16)),
        env=draw(
            st.dictionaries(
                _names,
                st.none() | st.integers(0, 64) | _names,
                max_size=4,
            )
        ),
    )


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(bench_records())
def test_record_roundtrip_is_identity(record):
    clone = BenchRecord.from_dict(
        json.loads(json.dumps(record.to_dict()))
    )
    assert clone == record


@settings(max_examples=60, deadline=None)
@given(bench_records())
def test_roundtrip_then_compare_to_self_is_ok(record):
    """serialize -> load -> compare against itself is the identity gate:
    verdict OK, zero delta, no stage attribution, no drift."""
    clone = BenchRecord.from_dict(record.to_dict())
    finding = compare_records(clone, record)
    assert finding.verdict is Verdict.OK
    assert finding.regressed_stages == []
    assert finding.env_drift == {}
    assert finding.counter_drift == {}


@settings(max_examples=40, deadline=None)
@given(
    bench_records(),
    st.dictionaries(
        st.sampled_from(
            ["flux_capacitance", "note", "rev9_field", "qux"]
        ),
        st.none() | st.integers(0, 99) | st.text(max_size=10),
        max_size=3,
    ),
)
def test_unknown_future_fields_are_tolerated_and_preserved(
    record, future_fields
):
    data = record.to_dict()
    data.update(future_fields)
    loaded = BenchRecord.from_dict(data)
    # Unknown keys ride along in extras and re-serialise verbatim.
    for key, value in future_fields.items():
        assert loaded.extras[key] == value
        assert loaded.to_dict()[key] == value
    # And they never break the gates.
    assert compare_records(loaded, loaded).verdict is Verdict.OK


def _record(**overrides):
    base = dict(
        scenario="analyze_cold",
        tier="full",
        created="2026-08-09T00:00:00+00:00",
        scale={"macros": 600},
        repeats=3,
        warmup=1,
        samples=[0.3, 0.31, 0.32],
        stages={"sim.run": 0.1, "stacks.generate": 0.2},
        digest="abc123",
        env={"python": "3.12.0"},
    )
    base.update(overrides)
    return BenchRecord(**base)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_newer_schema_version_is_rejected():
    data = _record().to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(BenchSchemaError, match="newer"):
        BenchRecord.from_dict(data)


def test_missing_samples_rejected():
    data = _record().to_dict()
    data["samples"] = []
    with pytest.raises(BenchSchemaError, match="no timing samples"):
        BenchRecord.from_dict(data)


def test_missing_required_field_rejected():
    data = _record().to_dict()
    del data["scenario"]
    with pytest.raises(BenchSchemaError, match="scenario"):
        BenchRecord.from_dict(data)


def test_derived_statistics():
    record = _record(samples=[0.4, 0.2, 0.3])
    assert record.min_seconds == pytest.approx(0.2)
    assert record.median_seconds == pytest.approx(0.3)
    assert record.spread == pytest.approx(1.0)
    shares = record.stage_shares()
    assert shares["sim.run"] == pytest.approx(0.5)
    assert shares["stacks.generate"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------


def test_trajectory_save_load_roundtrip(tmp_path):
    trajectory = TrajectoryFile(scenario="analyze_cold")
    record = _record()
    trajectory.append(record)
    trajectory.set_baseline(record)
    path = trajectory_path(tmp_path, "analyze_cold")
    trajectory.save(path)
    assert path.name == "BENCH_analyze_cold.json"

    loaded = TrajectoryFile.load(path)
    assert loaded.scenario == "analyze_cold"
    assert loaded.baseline_for("full") == record
    assert loaded.latest_run() == record
    assert loaded.baseline_for("ci") is None


def test_trajectory_rejects_foreign_records(tmp_path):
    trajectory = TrajectoryFile(scenario="analyze_cold")
    with pytest.raises(BenchSchemaError):
        trajectory.append(_record(scenario="other"))
    with pytest.raises(BenchSchemaError):
        trajectory.set_baseline(_record(scenario="other"))


def test_trajectory_caps_run_history():
    trajectory = TrajectoryFile(scenario="analyze_cold")
    for index in range(MAX_RUNS + 7):
        trajectory.append(_record(samples=[0.1 + index * 1e-6]))
    assert len(trajectory.runs) == MAX_RUNS
    # Oldest dropped, newest kept.
    assert trajectory.runs[-1].samples[0] == pytest.approx(
        0.1 + (MAX_RUNS + 6) * 1e-6
    )


def test_trajectory_open_fresh_and_existing(tmp_path):
    fresh = TrajectoryFile.open(tmp_path, "analyze_cold")
    assert fresh.runs == [] and fresh.baselines == {}
    fresh.append(_record())
    fresh.save(trajectory_path(tmp_path, "analyze_cold"))
    again = TrajectoryFile.open(tmp_path, "analyze_cold")
    assert len(again.runs) == 1


def test_trajectory_load_rejects_bad_json(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text("{not json")
    with pytest.raises(BenchSchemaError, match="not valid JSON"):
        TrajectoryFile.load(path)


#: The committed trajectory files at the repository root.
_COMMITTED = sorted(
    pathlib.Path(__file__).resolve().parents[2].glob("BENCH_*.json")
)


def test_committed_trajectories_exist():
    assert len(_COMMITTED) >= 8


@pytest.mark.parametrize("path", _COMMITTED, ids=lambda p: p.name)
def test_committed_trajectory_load_save_is_byte_stable(path, tmp_path):
    """Loading and saving a committed file rewrites none of its bytes,
    so appending a run changes nothing but the appended record
    (integer counters stay integers)."""
    copy = tmp_path / path.name
    TrajectoryFile.load(path).save(copy)
    assert copy.read_bytes() == path.read_bytes()
