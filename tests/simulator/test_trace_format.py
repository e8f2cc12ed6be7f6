"""Trace archive format: path normalisation, the one format, goldens.

Three historical bugs are pinned here:

* ``save_result`` used to append ``.npz`` blindly, so ``trace.dat``
  landed on disk as ``trace.dat.npz`` and ``trace.npz.gz`` as
  ``trace.npz.gz.npz`` — callers then failed to find their own files.
* ``load_result`` hard-rejected any other ``format_version`` with an
  error that did not name the offending file or say which version the
  build reads.
* Every layout rewrite must keep the committed golden archive's
  meaning: ``golden_trace.npz`` (format 3) loads to the same records
  and the same digest as a fresh simulation of its recipe.  It was
  re-encoded from the format-2 golden, whose digest equalled the
  format-1 golden's, so the same run has been pinned since format 1.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.common.archive import normalise_archive_path
from repro.common.config import baseline_config
from repro.simulator.core import simulate
from repro.simulator.traceio import (
    FORMAT_VERSION,
    TraceFormatError,
    load_result,
    result_digest,
    save_result,
)
from repro.workloads.generator import WorkloadSpec, generate
from tests.common.test_archive import (
    BAD_METAS,
    flip_member,
    rewrite_meta,
    write_bad_meta,
)

DATA = pathlib.Path(__file__).parent.parent / "data"
#: Format 3, the run of GOLDEN_SPEC at GOLDEN_SEED.
GOLDEN_TRACE = DATA / "golden_trace.npz"
#: Format 3, the model of GOLDEN_TRACE's run at segment length 40 (four
#: segments): the other kind of archive.
GOLDEN_MODEL = DATA / "golden_model.npz"


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

#: Metadata fields of the wrong shape, by kind.  Each used to end the
#: load in a ``TypeError`` or ``ValueError`` traceback.
MALFORMED_METAS = {
    "layout-int": {"layout": 5},
    "layout-pairs": {"layout": [["uop_macro_id", "int64"]]},
    "params-int": {"workload_params": 3},
}


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


class TestFormatVersion:
    def test_writer_is_v3(self, tiny_result, tmp_path):
        path = save_result(tiny_result, tmp_path / "trace.npz")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
            members = sorted(archive.files)
        assert meta["format_version"] == FORMAT_VERSION == 3
        # One member per column dtype, beside the metadata.
        assert members == ["bool", "int16", "int32", "int64", "meta_json"]
        assert len(meta["layout"]) == 36

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_another_version_names_file_and_version(self, tmp_path, version):
        path = rewrite_meta(
            GOLDEN_TRACE, tmp_path / "other.npz", format_version=version
        )
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path)
        assert str(excinfo.value) == (
            f"{path}: trace format version {version}; "
            "this build reads version 3"
        )

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
        with pytest.raises(TraceFormatError, match="layout") as excinfo:
            load_result(GOLDEN_MODEL)
        assert str(GOLDEN_MODEL) in str(excinfo.value)

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

    def test_a_flipped_member_names_file_and_member(self, tmp_path):
        path = flip_member(GOLDEN_TRACE, tmp_path / "flipped.npz", "int64")
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path)
        assert str(excinfo.value).startswith(
            f"{path}: member int64.npy is corrupt: "
        )

    @pytest.mark.parametrize("kind", sorted(BAD_METAS))
    def test_metadata_that_is_no_json_object_names_file(self, tmp_path, kind):
        path = write_bad_meta(GOLDEN_TRACE, tmp_path / "t.npz", kind)
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path)
        _raw, message = BAD_METAS[kind]
        assert str(excinfo.value).startswith(
            f"{path}: member meta_json {message}"
        )

    @pytest.mark.parametrize("kind", sorted(MALFORMED_METAS))
    def test_a_malformed_metadata_field_names_file(self, tmp_path, kind):
        path = rewrite_meta(
            GOLDEN_TRACE, tmp_path / "t.npz", **MALFORMED_METAS[kind]
        )
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path)
        message = str(excinfo.value)
        assert message.startswith(
            f"{path} is not a trace archive: its metadata is malformed ("
        )
        assert "\n" not in message

    def test_loads_from_given_bytes_and_names_the_path(self, tmp_path):
        path = tmp_path / "named.npz"
        loaded = load_result(path, data=GOLDEN_TRACE.read_bytes())
        assert result_digest(loaded) == result_digest(
            load_result(GOLDEN_TRACE)
        )
        flipped = flip_member(GOLDEN_TRACE, tmp_path / "flipped.npz", "int64")
        with pytest.raises(TraceFormatError) as excinfo:
            load_result(path, data=flipped.read_bytes())
        assert str(excinfo.value).startswith(f"{path}: member int64.npy ")


class TestGolden:
    """The committed archive loads to the run a fresh simulation of its
    recipe produces."""

    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_TRACE.exists(), "committed golden archive missing"
        return load_result(GOLDEN_TRACE)

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
