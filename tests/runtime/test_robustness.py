"""Failure-injection tests for the runner and the artifact cache.

A production sweep cannot afford one bad workload or one corrupt cache
file taking down the whole run: failures must be *reported*, corruption
must be *detected and recomputed*, never crashed on and never silently
served.
"""

import builtins
import io
import json
import os

import numpy as np
import pytest

from repro.dse.pipeline import analyze
from repro.runtime.cache import ArtifactCache
from repro.runtime.fingerprint import file_checksum
from repro.runtime.runner import run_suite
from repro.simulator.traceio import TraceFormatError
from repro.workloads.suite import make_workload
from tests.common.test_archive import replace_member, rewrite_meta

MACROS = 50


def _exploding_factory(name, macros, seed=1):
    """Picklable workload factory that detonates for one workload."""
    if name == "mcf":
        raise RuntimeError("synthetic generator failure for mcf")
    return make_workload(name, macros, seed=seed)


NAMES = ("gamess", "mcf", "bzip2")


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_workload_does_not_sink_the_suite(jobs):
    report = run_suite(
        names=NAMES,
        macros=MACROS,
        jobs=jobs,
        workload_factory=_exploding_factory,
    )
    assert [o.name for o in report] == list(NAMES)
    assert [o.ok for o in report] == [True, False, True]
    failed = report.failed[0]
    assert failed.name == "mcf"
    assert "synthetic generator failure" in failed.error
    assert report.session("gamess").baseline_result.cycles > 0
    with pytest.raises(RuntimeError, match="failed"):
        report.session("mcf")
    # The failure is also visible (not fatal) in the human summary.
    assert "FAILED" in report.describe()


def _entry_dirs(cache):
    return list(cache._entries())


def _fresh_entry(tmp_path, workload):
    cache = ArtifactCache(tmp_path / "cache")
    session = analyze(workload, cache=cache)
    (entry,) = _entry_dirs(cache)
    return cache, session, entry


@pytest.mark.parametrize("artifact", ["trace.npz", "model.npz"])
def test_corrupted_artifact_is_recomputed(tmp_path, artifact):
    workload = make_workload("gamess", MACROS)
    cache, cold, entry = _fresh_entry(tmp_path, workload)
    target = entry / artifact
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0xFF
    target.write_bytes(bytes(data))

    recomputed = analyze(workload, cache=cache)
    assert cache.corruptions == 1
    assert cache.hits == 0
    assert recomputed.baseline_result.cycles == cold.baseline_result.cycles
    # The rewritten entry is healthy again: next call is a clean hit.
    warm = analyze(workload, cache=cache)
    assert cache.hits == 1
    assert warm.baseline_result.cycles == cold.baseline_result.cycles


def test_truncated_artifact_is_recomputed(tmp_path):
    workload = make_workload("bzip2", MACROS)
    cache, cold, entry = _fresh_entry(tmp_path, workload)
    target = entry / "model.npz"
    target.write_bytes(target.read_bytes()[: 100])

    recomputed = analyze(workload, cache=cache)
    assert cache.corruptions == 1
    assert recomputed.baseline_result.cycles == cold.baseline_result.cycles


def test_mangled_meta_is_recomputed(tmp_path):
    workload = make_workload("gamess", MACROS)
    cache, cold, entry = _fresh_entry(tmp_path, workload)
    (entry / "meta.json").write_text("{not json")

    recomputed = analyze(workload, cache=cache)
    assert cache.corruptions == 1
    assert recomputed.baseline_result.cycles == cold.baseline_result.cycles


def test_missing_artifact_is_recomputed(tmp_path):
    workload = make_workload("gamess", MACROS)
    cache, cold, entry = _fresh_entry(tmp_path, workload)
    os.remove(entry / "trace.npz")

    recomputed = analyze(workload, cache=cache)
    assert cache.corruptions == 1
    assert recomputed.baseline_result.cycles == cold.baseline_result.cycles


def test_a_hit_reads_each_artifact_once(tmp_path, monkeypatch):
    """A hit checks each artifact's checksum on the bytes it decodes
    from, and decoding the trace later opens no file."""
    workload = make_workload("gamess", MACROS)
    cache, cold, _entry = _fresh_entry(tmp_path, workload)
    opened = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)):
            opened.append(os.path.basename(os.fsdecode(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    hit = analyze(workload, cache=cache)
    assert cache.hits == 1
    assert opened.count("trace.npz") == 1
    assert opened.count("model.npz") == 1
    assert hit.baseline_result.cycles == cold.baseline_result.cycles
    assert opened.count("trace.npz") == 1


@pytest.mark.parametrize("fault", ["no-archive", "meta-list", "meta-layout"])
def test_a_trace_that_passes_its_checksum_fails_at_first_access(
    tmp_path, fault
):
    """Trace bytes that match their checksum but do not decode (a
    writer fault) load as a hit, and the first access of the run raises
    the format error naming the entry's trace."""
    workload = make_workload("gamess", MACROS)
    cache, cold, entry = _fresh_entry(tmp_path, workload)
    target = entry / "trace.npz"
    if fault == "no-archive":
        target.write_bytes(b"a writer fault")
        expected = f"{target} is not an .npz archive"
    elif fault == "meta-layout":
        rewrite_meta(target, target, layout=5)
        expected = (
            f"{target} is not a trace archive: its metadata is malformed "
            "('int' object is not iterable)"
        )
    else:
        replace_member(
            target, target, "meta_json",
            np.frombuffer(b"[1, 2]", dtype=np.uint8),
        )
        expected = f"{target}: member meta_json is not a JSON object"
    meta = json.loads((entry / "meta.json").read_text())
    meta["checksums"]["trace.npz"] = file_checksum(target)
    (entry / "meta.json").write_text(json.dumps(meta))

    hit = analyze(workload, cache=cache)
    assert (cache.hits, cache.corruptions) == (1, 0)
    assert hit.rpstacks.content_digest() == cold.rpstacks.content_digest()
    for _ in range(2):
        with pytest.raises(TraceFormatError) as excinfo:
            hit.baseline_result
        assert str(excinfo.value) == expected


def test_clear_and_stats(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    analyze(make_workload("gamess", MACROS), cache=cache)
    analyze(make_workload("bzip2", MACROS), cache=cache)
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.total_bytes > 0
    assert stats.workloads == {"gamess": 1, "bzip2": 1}
    assert cache.clear() == 2
    assert cache.stats().entries == 0
    # Clearing twice is a harmless no-op.
    assert cache.clear() == 0


def _staging_dirs(cache):
    return sorted(cache.root.glob("v2/*/.*"))


def test_interrupted_store_leaves_no_staging_directory(
    tmp_path, monkeypatch
):
    """A Ctrl-C while an entry is being written removes its staging
    directory and publishes nothing."""
    import repro.core.io

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(repro.core.io, "save_model", interrupt)
    cache = ArtifactCache(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        analyze(make_workload("gamess", MACROS), cache=cache)
    assert (cache.root / "v2").is_dir()
    assert _staging_dirs(cache) == []
    assert cache.stats().entries == 0


def test_stats_skip_a_staging_directory_that_holds_meta(tmp_path):
    """A writer killed between writing meta.json and its rename leaves
    a complete-looking staging directory: not an entry, but cleared."""
    import shutil

    workload = make_workload("gamess", MACROS)
    cache, _session, entry = _fresh_entry(tmp_path, workload)
    shutil.copytree(entry, entry.parent / f".{entry.name[:8]}-killed")
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.workloads == {"gamess": 1}
    assert cache.clear() == 1
    assert _staging_dirs(cache) == []


def test_clear_removes_a_staging_directory_without_meta(tmp_path):
    workload = make_workload("gamess", MACROS)
    cache, _session, entry = _fresh_entry(tmp_path, workload)
    staging = entry.parent / f".{entry.name[:8]}-killed"
    staging.mkdir()
    (staging / "trace.npz").write_bytes((entry / "trace.npz").read_bytes())
    assert cache.clear() == 1
    assert _staging_dirs(cache) == []
    assert cache.stats().entries == 0


def test_created_stamp_is_wall_clock_iso(tmp_path):
    workload = make_workload("gamess", MACROS)
    cache, _session, entry = _fresh_entry(tmp_path, workload)
    meta = json.loads((entry / "meta.json").read_text())
    # ISO-8601 UTC, parsable back into an age of roughly "just now".
    from repro.obs import clock

    then = clock.parse_wall_iso(meta["created"])
    assert then.tzinfo is not None
    age = ArtifactCache._entry_age_seconds(meta["created"])
    assert 0.0 <= age < 300.0


def test_stats_report_entry_ages(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    analyze(make_workload("gamess", MACROS), cache=cache)
    analyze(make_workload("bzip2", MACROS), cache=cache)
    stats = cache.stats()
    assert len(stats.entry_ages_seconds) == 2
    assert stats.newest_age_seconds <= stats.oldest_age_seconds
    assert "entry age" in stats.describe()
    assert "newest" in stats.describe()


def test_unparsable_created_stamp_is_skipped(tmp_path):
    workload = make_workload("gamess", MACROS)
    cache, _session, entry = _fresh_entry(tmp_path, workload)
    meta = json.loads((entry / "meta.json").read_text())
    # Every entry of this layout carries an ISO-8601 stamp, so an epoch
    # float is as unparsable as any other junk.
    for stamp in ("not-a-date", 1_700_000_000.0):
        meta["created"] = stamp
        (entry / "meta.json").write_text(json.dumps(meta))
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.entry_ages_seconds == []
        assert "entry age" not in stats.describe()


def test_checksums_recorded_in_meta(tmp_path):
    workload = make_workload("gamess", MACROS)
    _cache, _session, entry = _fresh_entry(tmp_path, workload)
    meta = json.loads((entry / "meta.json").read_text())
    assert set(meta["checksums"]) == {"trace.npz", "model.npz"}
    assert meta["workload"] == "gamess"
    assert all(len(digest) == 64 for digest in meta["checksums"].values())


def test_entry_holds_only_the_trace_and_the_model(tmp_path):
    # The graph is rebuilt from the trace on a hit, never stored.
    workload = make_workload("gamess", MACROS)
    _cache, _session, entry = _fresh_entry(tmp_path, workload)
    assert sorted(p.name for p in entry.iterdir()) == [
        "meta.json", "model.npz", "trace.npz",
    ]
    assert entry.parent.parent.name == "v2"


def test_entry_of_the_previous_layout_is_a_plain_miss(tmp_path):
    workload = make_workload("gamess", MACROS)
    cache, cold, entry = _fresh_entry(tmp_path, workload)
    # Move the entry to where the previous layout kept it, beside the
    # graph archive that layout also stored.
    legacy = cache.root / "v1" / entry.parent.name / entry.name
    legacy.parent.mkdir(parents=True)
    os.replace(entry, legacy)
    (legacy / "graph.npz").write_bytes(b"an archived graph")

    fresh = ArtifactCache(cache.root)
    recomputed = analyze(workload, cache=fresh)
    assert fresh.misses == 1
    assert fresh.corruptions == 0
    assert fresh.hits == 0
    assert recomputed.baseline_result.cycles == cold.baseline_result.cycles
    # The old entry is left alone, and only the new layout is counted.
    assert (legacy / "graph.npz").is_file()
    assert fresh.stats().entries == 1


def test_unknown_suite_name_fails_fast():
    with pytest.raises(KeyError, match="no-such-workload"):
        run_suite(names=("gamess", "no-such-workload"), macros=MACROS)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_suite(names=("gamess",), macros=MACROS, jobs=0)
