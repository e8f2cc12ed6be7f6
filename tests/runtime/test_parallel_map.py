"""Generic pool-machinery tests: ordering, isolation, timeouts,
per-task timing, retries, pool respawn and worker-side instrumentation
capture."""

import multiprocessing
import time

import pytest

from repro.obs import clock
from repro.obs.observer import Observer
from repro.runtime.resilience import RetryPolicy
from repro.runtime.runner import TaskOutcome, parallel_map
from tests.chaos import faults


def square(value):
    return value * value


def add(left, right):
    return left + right


def explode(value):
    raise RuntimeError(f"boom {value}")


def nap_and_square(value):
    time.sleep(0.02)
    return value * value


def hang_then_square(value):
    time.sleep(30)
    return value * value


def assert_no_orphans(grace=5.0):
    """No worker process survives the parallel_map call that spawned it."""
    deadline = clock.perf_seconds() + grace
    while multiprocessing.active_children():
        if clock.perf_seconds() > deadline:
            raise AssertionError(
                f"orphaned workers: {multiprocessing.active_children()}"
            )
        time.sleep(0.05)


def _arm(plan, tmp_path, monkeypatch):
    for key, value in faults.arm(plan, tmp_path).items():
        monkeypatch.setenv(key, value)


def test_serial_preserves_order():
    outcomes = parallel_map(square, [(3,), (1,), (2,)], jobs=1)
    assert [o.value for o in outcomes] == [9, 1, 4]
    assert all(o.ok for o in outcomes)


def test_parallel_preserves_order():
    outcomes = parallel_map(square, [(n,) for n in range(8)], jobs=3)
    assert [o.value for o in outcomes] == [n * n for n in range(8)]


def test_multiple_arguments_unpack():
    outcomes = parallel_map(add, [(1, 2), (3, 4)], jobs=1)
    assert [o.value for o in outcomes] == [3, 7]


@pytest.mark.parametrize("jobs", [1, 2])
def test_errors_are_isolated_with_tracebacks(jobs):
    outcomes = parallel_map(explode, [(1,), (2,)], jobs=jobs)
    assert not any(o.ok for o in outcomes)
    assert "boom 1" in outcomes[0].error
    assert "boom 2" in outcomes[1].error
    assert isinstance(outcomes[0], TaskOutcome)


def test_failed_task_does_not_sink_the_batch():
    outcomes = parallel_map(explode, [(1,)], jobs=1) + parallel_map(
        square, [(4,)], jobs=1
    )
    assert [o.ok for o in outcomes] == [False, True]


def test_bad_jobs_rejected():
    with pytest.raises(ValueError):
        parallel_map(square, [(1,)], jobs=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_carry_elapsed_seconds(jobs):
    outcomes = parallel_map(nap_and_square, [(2,), (3,)], jobs=jobs)
    assert [o.value for o in outcomes] == [4, 9]
    for outcome in outcomes:
        assert outcome.elapsed_seconds >= 0.02


def test_disabled_observer_captures_nothing():
    outcomes = parallel_map(square, [(2,)], jobs=2)
    assert outcomes[0].trace_events is None
    assert outcomes[0].metrics is None


def test_enabled_observer_absorbs_worker_spans():
    obs = Observer(enabled=True, progress_stream=None)
    outcomes = parallel_map(square, [(2,), (3,)], jobs=2, obs=obs)
    assert [o.value for o in outcomes] == [4, 9]
    # Each worker wrapped its task in a span shipped back with the result
    # and merged into the parent's timeline.
    for outcome in outcomes:
        assert outcome.trace_events
    names = {e["name"] for o in outcomes for e in o.trace_events}
    assert {"task.0", "task.1"} <= names
    totals = obs.tracer.totals_by_name()
    assert "task.0" in totals and "task.1" in totals


def test_serial_enabled_observer_records_task_spans():
    obs = Observer(enabled=True, progress_stream=None)
    parallel_map(square, [(2,), (3,)], jobs=1, obs=obs)
    spans = [s for s in obs.tracer.spans if s.name == "task"]
    assert [s.attrs["index"] for s in spans] == [0, 1]


@pytest.mark.parametrize("jobs", [1, 2])
class TestDeadlines:
    def test_timeout_records_real_elapsed_and_reaps_straggler(self, jobs):
        """A straggler is reported with its *actual* run time (not 0.0),
        flagged timed_out, and its worker is reaped — while innocent
        tasks in the same batch still complete."""
        tick = clock.perf_seconds()
        outcomes = parallel_map(
            hang_then_square,
            [(7,)],
            jobs=jobs,
            timeout=1.0,
        )
        wall = clock.perf_seconds() - tick
        straggler = outcomes[0]
        assert not straggler.ok
        assert straggler.timed_out
        assert straggler.elapsed_seconds >= 0.9
        assert straggler.elapsed_seconds < wall + 0.1
        assert "timed out after" in straggler.error
        assert "(1.0s per-task budget)" in straggler.error
        assert wall < 15  # reaped, not waited out
        assert_no_orphans()

    def test_innocent_tasks_survive_a_straggler(self, jobs):
        outcomes = parallel_map(
            nap_and_square,
            [(2,), (3,), (4,), (5,)],
            jobs=jobs,
            timeout=5.0,
        )
        assert [o.value for o in outcomes] == [4, 9, 16, 25]
        assert not any(o.timed_out for o in outcomes)
        assert_no_orphans()


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failures_retry_to_success(
        self, tmp_path, monkeypatch, jobs
    ):
        _arm({"0": {"kind": "raise", "attempts": 2}}, tmp_path, monkeypatch)
        retry = RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.02
        )
        obs = Observer(enabled=True, progress_stream=None)
        outcomes = parallel_map(
            faults.chaos_task, [(0,), (1,)], jobs=jobs, retry=retry,
            obs=obs,
        )
        assert [o.value for o in outcomes] == [0, 1]
        assert outcomes[0].attempts == 3
        assert outcomes[1].attempts == 1
        assert obs.metrics.counter_value("runner.retries") == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_fail_with_attempt_count(
        self, tmp_path, monkeypatch, jobs
    ):
        _arm(
            {"0": {"kind": "raise", "attempts": 99}}, tmp_path, monkeypatch
        )
        retry = RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.02
        )
        outcomes = parallel_map(
            faults.chaos_task, [(0,), (1,)], jobs=jobs, retry=retry
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert "ChaosError" in outcomes[0].error
        assert outcomes[1].ok

    def test_no_retry_policy_fails_on_first_error(
        self, tmp_path, monkeypatch
    ):
        _arm({"0": {"kind": "raise", "attempts": 1}}, tmp_path, monkeypatch)
        outcomes = parallel_map(faults.chaos_task, [(0,)], jobs=2)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1


class TestPoolBreaks:
    def test_sigkill_respawns_pool_and_completes(
        self, tmp_path, monkeypatch
    ):
        _arm(
            {"1": {"kind": "sigkill", "attempts": 1}}, tmp_path, monkeypatch
        )
        retry = RetryPolicy(
            max_attempts=3, base_delay=0.01, max_delay=0.02
        )
        obs = Observer(enabled=True, progress_stream=None)
        outcomes = parallel_map(
            faults.chaos_task,
            [(0,), (1,), (2,), (3,)],
            jobs=2,
            retry=retry,
            obs=obs,
        )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert outcomes[1].attempts >= 2
        assert obs.metrics.counter_value("runner.pool_respawns") >= 1
        assert_no_orphans()

    def test_worker_death_without_retry_fails_loudly(
        self, tmp_path, monkeypatch
    ):
        _arm(
            {"0": {"kind": "sigkill", "attempts": 99}}, tmp_path, monkeypatch
        )
        outcomes = parallel_map(faults.chaos_task, [(0,)], jobs=2)
        assert not outcomes[0].ok
        assert "BrokenProcessPool" in outcomes[0].error
        assert_no_orphans()


def test_worker_flags_only_a_returned_task_finished(monkeypatch):
    """A task that raised stays flagged started: when a pool break
    swallows its error before the parent reads it, the parent charges it
    an attempt instead of re-running it for free."""
    from repro.runtime import runner

    state = multiprocessing.RawArray("b", 2)
    monkeypatch.setattr(runner, "_TASK_STATE", state)
    runner._timed_call(square, (3,), False, "0", slot=0)
    with pytest.raises(RuntimeError):
        runner._timed_call(explode, (1,), True, "1", slot=1)
    assert list(state) == [runner._FINISHED, runner._STARTED]


class TestOnResult:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_callback_fires_once_per_final_outcome(self, jobs):
        seen = []
        parallel_map(
            square,
            [(n,) for n in range(4)],
            jobs=jobs,
            on_result=lambda i, o: seen.append((i, o.ok, o.value)),
        )
        assert sorted(seen) == [(n, True, n * n) for n in range(4)]
