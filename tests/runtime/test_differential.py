"""Differential tests: parallel == serial, cache hit == cold compute.

The runtime subsystem must be *invisible* in the results: fanning the
suite across processes or reloading artifacts from the cache has to
produce bit-identical numbers to the plain serial, from-scratch path.
"""

import numpy as np
import pytest

from repro.common.events import EventType
from repro.dse.pipeline import analyze
from repro.runtime.cache import ArtifactCache
from repro.runtime.runner import run_suite
from repro.workloads.suite import make_workload, suite_names

#: Small enough that analysing the full 12-workload suite twice stays
#: fast, large enough to exercise caches, branches and segmentation.
MACROS = 60

#: Probe design points for predicted-CPI comparisons.
PROBES = (
    {},
    {EventType.L1D: 2, EventType.FP_ADD: 3},
    {EventType.MEM_D: 200, EventType.L2D: 24},
)


def _assert_sessions_identical(mine, theirs):
    """Bit-exact equality of everything an AnalysisSession derives."""
    assert mine.workload == theirs.workload
    assert mine.config == theirs.config
    assert mine.baseline_result.cycles == theirs.baseline_result.cycles
    assert mine.baseline_result.stats == theirs.baseline_result.stats
    assert (mine.graph.edge_src == theirs.graph.edge_src).all()
    assert (mine.graph.edge_dst == theirs.graph.edge_dst).all()
    assert (mine.graph.events == theirs.graph.events).all()
    assert (mine.graph.units == theirs.graph.units).all()
    assert mine.rpstacks.num_segments == theirs.rpstacks.num_segments
    for a, b in zip(
        mine.rpstacks.segment_stacks, theirs.rpstacks.segment_stacks
    ):
        assert (a == b).all()
    base = mine.config.latency
    for overrides in PROBES:
        probe = base.with_overrides(overrides)
        for name, predictor in mine.predictors().items():
            assert predictor.predict_cycles(probe) == theirs.predictors()[
                name
            ].predict_cycles(probe), (name, overrides)


@pytest.fixture(scope="module")
def serial_report():
    return run_suite(macros=MACROS, jobs=1)


@pytest.fixture(scope="module")
def parallel_report():
    return run_suite(macros=MACROS, jobs=3)


def test_both_runs_cover_the_whole_suite(serial_report, parallel_report):
    assert [o.name for o in serial_report] == list(suite_names())
    assert [o.name for o in parallel_report] == list(suite_names())
    assert not serial_report.failed
    assert not parallel_report.failed
    assert parallel_report.jobs == 3


def test_parallel_equals_serial_for_every_workload(
    serial_report, parallel_report
):
    for mine, theirs in zip(serial_report, parallel_report):
        assert mine.name == theirs.name
        assert mine.baseline_cycles == theirs.baseline_cycles, mine.name
        _assert_sessions_identical(mine.session, theirs.session)


def test_cache_hit_equals_cold_analysis(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    workload = make_workload("leslie3d", MACROS)
    cold = analyze(workload, cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    warm = analyze(workload, cache=cache)
    assert cache.hits == 1
    _assert_sessions_identical(cold, warm)
    # The warm session is fully functional, not a hollow shell: its
    # machine memo serves the baseline without a new timing run.
    assert warm.simulate(warm.config.latency).cycles == cold.baseline_result.cycles
    assert warm.machine.timing_runs == 0


def test_cache_is_isolated_per_input(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    analyze(make_workload("gamess", MACROS), cache=cache)
    analyze(make_workload("gamess", MACROS, seed=2), cache=cache)
    analyze(make_workload("gamess", MACROS), segment_length=64, cache=cache)
    assert cache.hits == 0
    assert cache.stats().entries == 3


def test_parallel_suite_through_shared_cache(tmp_path, serial_report):
    cache_dir = tmp_path / "cache"
    first = run_suite(macros=MACROS, jobs=3, cache=cache_dir)
    second = run_suite(macros=MACROS, jobs=3, cache=cache_dir)
    assert not first.failed and not second.failed
    assert all(o.cache_hit for o in second)
    for mine, theirs in zip(serial_report, second):
        _assert_sessions_identical(mine.session, theirs.session)
