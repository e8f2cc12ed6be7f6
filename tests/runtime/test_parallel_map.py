"""Generic runner tests: ordering, isolation, timeouts, per-task
timing, retries, worker deaths, interrupts, a killed parent and
worker-side instrumentation capture."""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import clock
from repro.obs.observer import Observer
from repro.runtime.runner import TaskOutcome, parallel_map
from tests.chaos import faults

ROOT = pathlib.Path(__file__).resolve().parents[2]


def square(value):
    return value * value


def add(left, right):
    return left + right


def explode(value):
    raise RuntimeError(f"boom {value}")


def nap_and_square(value):
    time.sleep(0.02)
    return value * value


def nap_and_explode(value):
    time.sleep(0.2)
    raise RuntimeError(f"boom {value}")


def hang_then_square(value):
    time.sleep(30)
    return value * value


def slow_square(value):
    time.sleep(0.3)
    return value * value


def square_or_lock(value):
    return threading.Lock() if value is None else value * value


def probe_then_nap(index):
    """A chaos task that stays running for a while once it survives
    its probe."""
    faults.probe(str(index))
    time.sleep(0.3)
    return index * index


def record_pid_then_nap(pid_dir, seconds):
    """Leave this worker's pid in *pid_dir*, then sleep."""
    (pathlib.Path(pid_dir) / str(os.getpid())).touch()
    time.sleep(seconds)


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


@pytest.mark.parametrize("unpicklable", ["argument", "value"])
def test_unpicklable_task_fails_alone(unpicklable):
    """An argument or return value that cannot cross the pipe fails
    only its own task, with the pickling TypeError's traceback."""
    odd = (threading.Lock(),) if unpicklable == "argument" else (None,)
    outcomes = parallel_map(square_or_lock, [(2,), odd, (3,)], jobs=2)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert [outcomes[0].value, outcomes[2].value] == [4, 9]
    assert "TypeError" in outcomes[1].error
    assert "pickle" in outcomes[1].error
    assert_no_orphans()


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_carry_elapsed_seconds(jobs):
    outcomes = parallel_map(nap_and_square, [(2,), (3,)], jobs=jobs)
    assert [o.value for o in outcomes] == [4, 9]
    for outcome in outcomes:
        assert outcome.elapsed_seconds >= 0.02


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_outcome_carries_its_attempts_elapsed_seconds(jobs):
    """A task that fails twice reports the time of its final 0.2 s
    attempt: not 0, and neither both attempts nor the backoff."""
    (outcome,) = parallel_map(nap_and_explode, [(1,)], jobs=jobs, retries=1)
    assert not outcome.ok
    assert outcome.attempts == 2
    assert 0.2 <= outcome.elapsed_seconds < 0.4


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


def test_deadline_runs_from_hand_over_not_from_queueing():
    """Three 0.3 s tasks queued behind one worker each fit a 0.5 s
    budget: time spent waiting for the worker is not charged."""
    outcomes = parallel_map(
        slow_square, [(2,), (3,), (4,)], jobs=1, timeout=0.5
    )
    assert [o.value for o in outcomes] == [4, 9, 16]
    assert not any(o.timed_out for o in outcomes)
    assert_no_orphans()


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failures_retry_to_success(
        self, tmp_path, monkeypatch, jobs
    ):
        _arm({"0": {"kind": "raise", "attempts": 2}}, tmp_path, monkeypatch)
        obs = Observer(enabled=True, progress_stream=None)
        outcomes = parallel_map(
            faults.chaos_task, [(0,), (1,)], jobs=jobs, retries=2, obs=obs,
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
        outcomes = parallel_map(
            faults.chaos_task, [(0,), (1,)], jobs=jobs, retries=1
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
        """A SIGKILLed worker costs only its own task an attempt, not
        the task running beside it, and one worker replaces it."""
        _arm(
            {"1": {"kind": "sigkill", "attempts": 1}}, tmp_path, monkeypatch
        )
        obs = Observer(enabled=True, progress_stream=None)
        outcomes = parallel_map(
            probe_then_nap,
            [(0,), (1,), (2,), (3,)],
            jobs=2,
            retries=2,
            obs=obs,
        )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1]
        assert obs.metrics.counter_value("runner.worker_deaths") == 1
        assert_no_orphans()

    def test_worker_death_without_retry_fails_loudly(
        self, tmp_path, monkeypatch
    ):
        _arm(
            {"0": {"kind": "sigkill", "attempts": 99}}, tmp_path, monkeypatch
        )
        outcomes = parallel_map(faults.chaos_task, [(0,)], jobs=2)
        assert not outcomes[0].ok
        assert "worker process died" in outcomes[0].error
        assert "exit code -9" in outcomes[0].error
        assert_no_orphans()


def _exited(pid):
    """Whether process *pid* has exited; a zombie waiting for its
    reaper counts."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestInterrupts:
    def test_interrupt_kills_every_worker(self):
        """A Ctrl-C in the parent leaves no worker process behind."""

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            with pytest.raises(KeyboardInterrupt):
                parallel_map(
                    slow_square, [(n,) for n in range(4)], jobs=2
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/stat").exists(),
        reason="reads process states from /proc",
    )
    def test_workers_exit_when_the_parent_is_sigkilled(self, tmp_path):
        """Each worker of a SIGKILLed parent exits once its nap ends,
        instead of waiting for a next attempt forever."""
        nap = 2.0
        script = (
            "from repro.runtime.runner import parallel_map\n"
            "from tests.runtime.test_parallel_map import "
            "record_pid_then_nap\n"
            f"parallel_map(record_pid_then_nap, [({str(tmp_path)!r}, "
            f"{nap})] * 4, jobs=2)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], cwd=str(ROOT), env=env
        )
        pids = []
        try:
            deadline = clock.perf_seconds() + 60
            while len(pids) < 2:
                assert parent.poll() is None, "the map ended unkilled"
                assert clock.perf_seconds() < deadline, "no workers"
                time.sleep(0.01)
                pids = [int(path.name) for path in tmp_path.iterdir()]
            parent.kill()
            parent.wait()
            deadline = clock.perf_seconds() + nap + 5
            while not all(_exited(pid) for pid in pids):
                assert clock.perf_seconds() < deadline, (
                    f"workers {[p for p in pids if not _exited(p)]} "
                    "outlived their SIGKILLed parent"
                )
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
            for pid in pids:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)
