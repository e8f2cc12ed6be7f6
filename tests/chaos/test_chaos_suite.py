"""Chaos acceptance: the 12-workload suite survives injected faults.

Workers raise transient errors or SIGKILL themselves mid-suite; with
retries the run must still complete, the faulted workloads must
succeed on a later attempt, and a workload that *keeps* failing must
degrade into a partial report with the dedicated exit code instead of
sinking the suite.  Rerun on the same cache, a suite redoes only what
failed.

The fault seed comes from ``REPRO_CHAOS_SEED`` when set (the CI
chaos-smoke matrix), otherwise both CI seeds run locally.
"""

import os

import pytest

from repro.runtime import EXIT_OK, EXIT_PARTIAL_FAILURE, run_suite
from repro.workloads.suite import suite_names
from tests.chaos import faults

_ENV_SEED = os.environ.get("REPRO_CHAOS_SEED")
SEEDS = [int(_ENV_SEED)] if _ENV_SEED else [101, 202]

#: Small enough that a 12-workload suite with retries stays fast.
MACROS = 60


def _arm(plan, tmp_path, monkeypatch):
    for key, value in faults.arm(plan, tmp_path / "chaos").items():
        monkeypatch.setenv(key, value)


@pytest.mark.parametrize("chaos_seed", SEEDS)
def test_suite_survives_injected_faults(tmp_path, monkeypatch, chaos_seed):
    """The headline drill: transient raises + worker SIGKILLs across the
    full canonical suite, jobs > 1, everything completes."""
    names = suite_names()
    assert len(names) == 12
    plan = faults.make_plan(
        chaos_seed, names, kinds=("raise", "sigkill"), fraction=0.25
    )
    _arm(plan, tmp_path, monkeypatch)
    # A death is charged to its own workload only, so every victim
    # needs exactly one retry and every other workload one attempt.
    report = run_suite(
        names=names,
        macros=MACROS,
        jobs=3,
        retries=1,
        workload_factory=faults.chaos_workload,
        cache=tmp_path / "cache",
    )
    assert len(report) == len(names)
    assert not report.failed
    assert report.exit_code == EXIT_OK
    attempts = {o.name: o.attempts for o in report}
    assert attempts == {
        name: 2 if name in plan else 1 for name in names
    }, attempts


def test_exhausted_retries_degrade_to_partial_report(
    tmp_path, monkeypatch
):
    """A workload that fails every attempt yields a failed outcome in an
    otherwise complete report — graceful degradation, exit code 3."""
    names = list(suite_names())[:4]
    victim = names[1]
    _arm(
        {victim: {"kind": "raise", "attempts": 99}}, tmp_path, monkeypatch
    )
    report = run_suite(
        names=names,
        macros=MACROS,
        jobs=2,
        retries=1,
        workload_factory=faults.chaos_workload,
    )
    assert [o.name for o in report.failed] == [victim]
    assert len(report.succeeded) == len(names) - 1
    assert report.exit_code == EXIT_PARTIAL_FAILURE
    failed = report.failed[0]
    assert failed.attempts == 2
    assert "ChaosError" in (failed.error or "")
    assert "FAILED" in report.describe()


def test_rerun_on_the_cache_redoes_only_the_failed_workload(
    tmp_path, monkeypatch
):
    """Crash drill for continuing a suite: a first run with one hopeless
    workload stores the survivors; after the fault clears, a rerun on
    the same cache loads them as hits and analyses only the failure."""
    names = list(suite_names())[:4]
    victim = names[2]
    _arm(
        {victim: {"kind": "raise", "attempts": 99}}, tmp_path, monkeypatch
    )
    cache = tmp_path / "cache"
    first = run_suite(
        names=names,
        macros=MACROS,
        jobs=2,
        cache=cache,
        workload_factory=faults.chaos_workload,
    )
    assert first.exit_code == EXIT_PARTIAL_FAILURE

    # The fault zone ends: re-arm with an empty plan and rerun.
    _arm({}, tmp_path / "clear", monkeypatch)
    second = run_suite(
        names=names,
        macros=MACROS,
        jobs=2,
        cache=cache,
        workload_factory=faults.chaos_workload,
    )
    assert second.exit_code == EXIT_OK
    hits = {o.name for o in second if o.cache_hit}
    assert hits == set(names) - {victim}
    fresh = next(o for o in second if o.name == victim)
    assert fresh.ok and not fresh.cache_hit
