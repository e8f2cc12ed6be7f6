"""Trace archive format: path normalisation, version compat, goldens.

Three historical bugs are pinned here:

* ``save_result`` used to append ``.npz`` blindly, so ``trace.dat``
  landed on disk as ``trace.dat.npz`` and ``trace.npz.gz`` as
  ``trace.npz.gz.npz`` — callers then failed to find their own files.
* ``load_result`` hard-rejected any ``format_version != 1`` with an
  error that did not name the offending file or say which versions the
  build could read.
* The v1->v2 columnar rewrite must not orphan existing archives: a
  committed v1 golden archive has to keep loading bit-identically
  (same records, same digest as a fresh simulation of its recipe).
  The v2->v3 packing of columns into per-dtype blocks keeps a committed
  v2 golden archive loading the same way.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.common.archive import normalise_archive_path
from repro.common.config import baseline_config
from repro.core.io import load_model, save_model
from repro.simulator.core import simulate
from repro.simulator.traceio import (
    COMPAT_FORMAT_VERSION,
    FORMAT_VERSION,
    TraceFormatError,
    load_result,
    result_digest,
    save_result,
)
from repro.workloads.generator import WorkloadSpec, generate

DATA = pathlib.Path(__file__).parent.parent / "data"
GOLDEN_V1 = DATA / "golden_trace_v1.npz"
#: Written by the format-2 writer from GOLDEN_SPEC and GOLDEN_SEED.
GOLDEN_V2 = DATA / "golden_trace_v2.npz"
#: A format-2 model archive, the other kind of archive.
GOLDEN_MODEL_V2 = DATA / "golden_model_v2.npz"

#: The exact recipe the committed golden archive was produced from.
GOLDEN_SPEC = WorkloadSpec(
    name="golden-mixed",
    num_macro_ops=120,
    p_load=0.25,
    p_store=0.10,
    p_fp_add=0.10,
    p_fp_mul=0.08,
    p_fp_div=0.02,
    p_int_mul=0.04,
    p_int_div=0.01,
    p_branch=0.12,
    working_set_bytes=256 * 1024,
    code_footprint_bytes=64 * 1024,
)
GOLDEN_SEED = 7


class TestPathNormalisation:
    @pytest.mark.parametrize(
        ("requested", "expected"),
        [
            ("trace.npz", "trace.npz"),
            ("trace", "trace.npz"),
            ("trace.dat", "trace.npz"),
            ("trace.npz.gz", "trace.npz"),
            ("trace.npz.backup.old", "trace.npz"),
            ("archive.v2.dat", "archive.v2.npz"),
        ],
    )
    def test_normalise(self, requested, expected):
        got = normalise_archive_path(pathlib.Path("/tmp/traces") / requested)
        assert got == pathlib.Path("/tmp/traces") / expected

    @pytest.mark.parametrize("requested", ["trace.dat", "trace.npz.gz", "t"])
    def test_save_returns_real_path(self, requested, tiny_result, tmp_path):
        saved = save_result(tiny_result, tmp_path / requested)
        assert saved.exists()
        assert saved.name.endswith(".npz")
        assert not saved.name.endswith(".npz.npz")
        # The returned path is the one that actually loads.
        assert load_result(saved).cycles == tiny_result.cycles

    def test_save_does_not_double_suffix(self, tiny_result, tmp_path):
        saved = save_result(tiny_result, tmp_path / "trace.dat")
        assert saved == tmp_path / "trace.npz"
        assert not (tmp_path / "trace.dat.npz").exists()


class TestVersionCompat:
    def test_writer_is_v3(self, tiny_result, tmp_path):
        path = save_result(tiny_result, tmp_path / "trace.npz")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
            members = sorted(archive.files)
        assert meta["format_version"] == FORMAT_VERSION == 3
        # One member per column dtype, beside the metadata.
        assert members == ["bool", "int16", "int32", "int64", "meta_json"]
        assert len(meta["layout"]) == 36

    def test_compat_floor_is_v1(self):
        assert COMPAT_FORMAT_VERSION == 1

    def test_unsupported_version_names_file_and_range(self, tmp_path):
        path = tmp_path / "future.npz"
        meta = json.dumps({"format_version": 99}).encode("utf-8")
        np.savez(path, meta_json=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "99" in message
        assert f"{COMPAT_FORMAT_VERSION}..{FORMAT_VERSION}" in message

    def test_foreign_npz_names_file(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path)
        assert str(path) in str(excinfo.value)


class TestOtherArchives:
    """Archives that are not traces fail with one error naming the
    file."""

    def test_golden_model_is_not_a_trace(self):
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(GOLDEN_MODEL_V2)
        assert str(GOLDEN_MODEL_V2) in str(excinfo.value)

    def test_format_3_model_is_not_a_trace(self, tmp_path):
        path = save_model(load_model(GOLDEN_MODEL_V2), tmp_path / "m")
        with pytest.raises(TraceFormatError, match="layout") as excinfo:
            load_result(path)
        assert str(path) in str(excinfo.value)

    def test_missing_block_names_file(self, tiny_result, tmp_path):
        path = save_result(tiny_result, tmp_path / "trace")
        with np.load(path) as archive:
            kept = {
                key: archive[key] for key in archive.files if key != "int16"
            }
        np.savez(path, **kept)
        with pytest.raises(TraceFormatError, match="int16") as excinfo:
            load_result(path)
        assert str(path) in str(excinfo.value)


class TestGoldenV1:
    """The committed pre-columnar archive keeps loading bit-identically."""

    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_V1.exists(), "committed golden archive missing"
        return load_result(GOLDEN_V1)

    @pytest.fixture(scope="class")
    def fresh(self):
        workload = generate(GOLDEN_SPEC, seed=GOLDEN_SEED)
        return simulate(workload, baseline_config(), native=False)

    def test_loads_metadata(self, golden):
        assert golden.workload.name == "golden-mixed"
        assert golden.num_uops == 129
        assert golden.cycles == 389

    def test_digest_matches_fresh_simulation(self, golden, fresh):
        assert result_digest(golden) == result_digest(fresh)

    def test_records_match_fresh_simulation(self, golden, fresh):
        assert golden.workload == fresh.workload
        assert golden.uops == fresh.uops

    def test_resave_upgrades_to_v2_bit_identically(
        self, golden, tmp_path
    ):
        upgraded = load_result(save_result(golden, tmp_path / "v2"))
        assert upgraded.uops == golden.uops
        assert result_digest(upgraded) == result_digest(golden)


def _fresh_golden():
    workload = generate(GOLDEN_SPEC, seed=GOLDEN_SEED)
    return simulate(workload, baseline_config(), native=False)


class TestGoldenV2:
    """The committed one-member-per-column archive keeps loading
    bit-identically and re-saves to format 3 bit-identically."""

    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_V2.exists(), "committed golden archive missing"
        with np.load(GOLDEN_V2) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        assert meta["format_version"] == 2
        return load_result(GOLDEN_V2)

    def test_digest_matches_fresh_simulation(self, golden):
        assert result_digest(golden) == result_digest(_fresh_golden())

    def test_resave_upgrades_to_v3_bit_identically(self, golden, tmp_path):
        path = save_result(golden, tmp_path / "v3")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        assert meta["format_version"] == 3
        upgraded = load_result(path)
        assert result_digest(upgraded) == result_digest(golden)
        assert upgraded.uops == golden.uops
