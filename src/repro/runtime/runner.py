"""Parallel suite runner: fan ``analyze()`` across the workload suite.

The paper evaluates twelve SPEC analogues; analysing them serially is
pure fan-out waiting to happen (every workload is independent).  The
runner distributes the per-workload pipeline over a
``concurrent.futures.ProcessPoolExecutor`` with:

* **deterministic results** — outcomes are returned in request order
  and each worker's computation is bit-identical to the serial path
  (asserted by ``tests/runtime/test_differential.py``);
* **error isolation** — a workload whose generator or simulation raises
  is reported as a failed outcome (with its traceback) without sinking
  the rest of the suite;
* **fault tolerance** — with a
  :class:`~repro.runtime.resilience.RetryPolicy`, transient failures
  are retried with exponential backoff (deterministic jitter), and a
  worker-process death (``BrokenProcessPool`` — SIGKILL, segfault, OOM
  kill) respawns the pool and requeues the unfinished tasks instead of
  failing the batch;
* **per-task deadlines** — a wall-clock budget per task, stamped at
  the first 50 ms poll that sees its future running.  A future reports
  running once the task enters the pool's call queue, before a worker
  picks it up, so the budget can include queue and worker start-up
  time; an overrunning task is reported failed with its *real* elapsed
  time and its straggler worker is reaped (terminated and joined),
  never orphaned;
* **cache integration** — workers share one on-disk
  :class:`~repro.runtime.cache.ArtifactCache`, whose atomic-rename
  writes make concurrent population safe;
* **checkpoint/resume** — ``run_suite(checkpoint=..., resume=True)``
  journals completed workloads and skips them on the next run (see
  :class:`~repro.runtime.resilience.SuiteCheckpoint`).

Workloads are regenerated inside each worker from their (name, macros,
seed) coordinates instead of being pickled over, which keeps task
payloads tiny and exercises the same deterministic-generation guarantee
the single-simulation methodology rests on.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import pathlib
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.config import MicroarchConfig
from repro.dse.pipeline import AnalysisSession, analyze
from repro.obs import clock
from repro.obs.observer import Observer, get_observer, use_observer
from repro.runtime.cache import ArtifactCache, open_cache
from repro.runtime.resilience import (
    RetryPolicy,
    SuiteCheckpoint,
    suite_fingerprint,
)
from repro.workloads.suite import make_workload, resolve_names, suite_names

#: Suite exit codes (`python -m repro suite`): every workload analysed.
EXIT_OK = 0
#: Every workload failed (or the command itself could not run).
EXIT_ALL_FAILED = 1
#: Some workloads failed after retries but the suite still produced a
#: partial report — distinct from 1 so schedulers can tell "rerun the
#: stragglers" from "everything is broken" (2 is argparse's).
EXIT_PARTIAL_FAILURE = 3

#: Poll cadence while a deadline is armed but no task has been observed
#: running yet (run-start detection needs an occasional wakeup).
_START_POLL_SECONDS = 0.05

#: How long to wait for a terminated straggler before escalating to
#: SIGKILL, and again before giving up on the join.
_REAP_GRACE_SECONDS = 5.0

#: A pool task's run state, which its worker writes into the call's
#: shared flags (:func:`_timed_call`): queued, started, finished.
_QUEUED, _STARTED, _FINISHED = 0, 1, 2

#: The shared run-state flags of the pool a worker process serves (one
#: byte per task, set by :func:`_init_worker`).
_TASK_STATE = None


def _init_worker(state) -> None:
    """Pool initializer: keep the call's shared run-state flags."""
    global _TASK_STATE
    _TASK_STATE = state


@dataclass
class TaskOutcome:
    """Result of one :func:`parallel_map` task (value or traceback).

    Besides the payload, each outcome carries its own wall-clock cost,
    how many attempts it took (>1 means the retry policy earned its
    keep), and — when the parent ran with an enabled observer — the
    trace events and metrics its worker recorded, so worker-side spans
    merge into the parent's timeline instead of vanishing with the
    process.
    """

    ok: bool
    value: Any = None
    error: Optional[str] = None
    #: wall-clock seconds the final attempt spent executing (on a
    #: timeout this is the real time the task ran before being reaped)
    elapsed_seconds: float = 0.0
    #: Chrome trace events recorded inside the worker (capture mode)
    trace_events: Optional[List[dict]] = None
    #: worker-side metrics registry export (capture mode)
    metrics: Optional[dict] = None
    #: total tries this task consumed (1 = succeeded/failed first try)
    attempts: int = 1
    #: the task exhausted its per-task deadline
    timed_out: bool = False


def _timed_call(
    fn: Callable, args: Tuple, capture: bool, label: str,
    delay: float = 0.0, slot: Optional[int] = None,
):
    """Worker body: run ``fn(*args)``, timed, optionally under a fresh
    capturing observer whose spans/metrics ship back with the result.

    Module-level so it pickles into pool workers; also used on the
    serial path (without capture — there the parent observer is already
    ambient, so spans record directly into it).  *delay* is the retry
    backoff, slept in the worker before the timer starts so the parent
    event loop never blocks on another task's backoff.  In a pool
    worker, *slot* is the task's index into the shared run-state flags,
    marked started once the backoff is over and finished when the task
    returns, so the parent knows which tasks a dead worker took with it.
    """
    if delay > 0:
        time.sleep(delay)
    if slot is not None:
        _TASK_STATE[slot] = _STARTED
    start = clock.perf_seconds()
    if not capture:
        value = fn(*args)
        result = value, clock.perf_seconds() - start, None, None
    else:
        worker_obs = Observer(enabled=True, progress_stream=None)
        with use_observer(worker_obs):
            with worker_obs.span(f"task.{label}"):
                value = fn(*args)
        result = (
            value,
            clock.perf_seconds() - start,
            worker_obs.tracer.export_events(),
            worker_obs.metrics.export(),
        )
    # A task that raised stays flagged started: if the pool breaks
    # before its error reaches the parent, it is charged an attempt like
    # a task the dead worker was running, not requeued for free.
    if slot is not None:
        _TASK_STATE[slot] = _FINISHED
    return result


def _serial_map(
    fn: Callable,
    tasks: List[Tuple],
    obs,
    retry: Optional[RetryPolicy],
    on_result: Optional[Callable],
) -> List[TaskOutcome]:
    """In-process path: same retry semantics, parent-side backoff."""
    outcomes: List[TaskOutcome] = []
    with use_observer(obs):
        for index, args in enumerate(tasks):
            attempt = 1
            while True:
                with obs.span("task", index=index, attempt=attempt):
                    try:
                        value, elapsed, _events, _metrics = _timed_call(
                            fn, args, capture=False, label=str(index)
                        )
                        outcome = TaskOutcome(
                            ok=True, value=value,
                            elapsed_seconds=elapsed, attempts=attempt,
                        )
                        break
                    except Exception as error:
                        if retry is not None and retry.should_retry(
                            error, attempt
                        ):
                            obs.counter("runner.retries").inc()
                            obs.event(
                                "task.retry", index=index, attempt=attempt
                            )
                            time.sleep(
                                retry.delay_for(attempt, task_key=index)
                            )
                            attempt += 1
                            continue
                        outcome = TaskOutcome(
                            ok=False, error=traceback.format_exc(),
                            attempts=attempt,
                        )
                        break
            outcomes.append(outcome)
            if on_result is not None:
                on_result(index, outcome)
    return outcomes


def _terminate_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear a process pool down *now*, reaping every worker process.

    Used when a straggler holds a worker hostage (deadline overrun) or
    the pool is already broken: terminate, join, escalate to SIGKILL if
    termination is ignored.  Guarantees no orphaned worker outlives the
    :func:`parallel_map` call that spawned it (asserted by
    ``tests/runtime/test_parallel_map.py``).
    """
    # Snapshot before shutdown(): the executor drops its _processes
    # reference during shutdown, and the manager thread would otherwise
    # wait politely for the straggler to finish its 30-minute nap.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):
            pass
    for process in processes:
        process.join(timeout=_REAP_GRACE_SECONDS)
        if process.is_alive():
            process.kill()
            process.join(timeout=_REAP_GRACE_SECONDS)


def parallel_map(
    fn: Callable,
    tasks: Sequence[Tuple],
    jobs: int = 1,
    timeout: Optional[float] = None,
    obs=None,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, TaskOutcome], None]] = None,
) -> List["TaskOutcome"]:
    """Apply ``fn(*args)`` to every argument tuple, optionally across
    worker processes.

    This is the suite runner's pool machinery, with the conventions it
    relies on:

    * **deterministic ordering** — outcomes follow *tasks* order, not
      completion order;
    * **error isolation** — a task that raises (or cannot be shipped to
      a worker) yields a failed :class:`TaskOutcome` carrying its
      traceback instead of sinking the whole batch;
    * **retries** — with a *retry* policy, a task failing with a
      retryable exception is requeued after its deterministic backoff
      (slept worker-side), up to ``max_attempts`` tries; a
      ``BrokenProcessPool`` (worker SIGKILLed, segfaulted, OOM-killed)
      respawns the pool, charges an attempt to the tasks that had
      started and not returned (each worker flags its task in shared
      memory; a task whose error the break swallowed counts as not
      returned), and requeues the others for free;
    * **per-task deadlines** — *timeout* bounds each task's wall clock
      from the first 50 ms poll that sees ``future.running()``, which
      turns true when the task enters the pool's call queue, so queue
      and worker start-up time can count against it; an overrun
      records a failed outcome with the real elapsed time, and the
      straggling worker is terminated and joined so no orphan survives
      the call;
    * **per-task timing** — every outcome reports its own elapsed
      seconds and attempt count, and with an enabled observer each
      worker's spans and metrics are captured and merged back into the
      parent (:meth:`~repro.obs.observer.Observer.absorb`).

    Args:
        fn: a picklable module-level callable.
        tasks: one positional-argument tuple per task.
        jobs: worker processes; ``1`` without a *timeout* runs serially
            in-process (retries apply).  A deadline needs a worker to
            reap, so ``jobs=1`` with a *timeout* runs on a one-worker
            pool.
        timeout: per-task wall-clock budget in seconds.
        obs: observer to record into; defaults to the ambient one.
        retry: a :class:`~repro.runtime.resilience.RetryPolicy`;
            ``None`` fails tasks on their first error.
        on_result: called as ``on_result(index, outcome)`` in the
            parent the moment each task reaches a final outcome (in
            completion order) — the hook incremental checkpointing
            hangs off.

    Returns:
        One :class:`TaskOutcome` per task, in *tasks* order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    obs = obs if obs is not None else get_observer()
    tasks = list(tasks)
    if jobs == 1 and timeout is None:
        return _serial_map(fn, tasks, obs, retry, on_result)

    capture = obs.enabled
    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
    attempts: List[int] = [1] * len(tasks)
    # One run-state byte per task, written by the workers: a future
    # reads as running as soon as it enters the pool's call queue, so
    # only the worker can say when a task really started.
    state = multiprocessing.RawArray("b", max(len(tasks), 1))

    def new_pool() -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(state,)
        )

    pool = new_pool()
    pending: Dict[concurrent.futures.Future, int] = {}
    started_at: Dict[concurrent.futures.Future, float] = {}

    def submit(index: int, delay: float = 0.0) -> None:
        # Every earlier attempt's worker has finished or been reaped, so
        # nothing else writes this slot.
        state[index] = _QUEUED
        future = pool.submit(
            _timed_call, fn, tasks[index], capture, str(index), delay, index
        )
        pending[future] = index

    def unfinished(index: int) -> bool:
        return state[index] == _STARTED

    def finalise(index: int, outcome: TaskOutcome) -> None:
        outcomes[index] = outcome
        if on_result is not None:
            on_result(index, outcome)

    def respawn() -> None:
        nonlocal pool
        _terminate_pool(pool)
        pool = new_pool()
        obs.counter("runner.pool_respawns").inc()

    try:
        for index in range(len(tasks)):
            submit(index)

        while pending:
            wait_timeout = None
            if timeout is not None:
                now = clock.perf_seconds()
                for future in pending:
                    if future not in started_at and future.running():
                        started_at[future] = now
                deadlines = [
                    started_at[f] + timeout
                    for f in pending if f in started_at
                ]
                if deadlines:
                    wait_timeout = max(0.0, min(deadlines) - now)
                if any(f not in started_at for f in pending):
                    # Keep polling until every pending task has a
                    # run-start stamp: deadlines measure from it.
                    wait_timeout = (
                        _START_POLL_SECONDS
                        if wait_timeout is None
                        else min(wait_timeout, _START_POLL_SECONDS)
                    )
            done, _not_done = concurrent.futures.wait(
                set(pending),
                timeout=wait_timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            requeue: List[Tuple[int, float]] = []
            broken: List[Tuple[int, bool]] = []
            pool_broken = False
            for future in done:
                index = pending.pop(future)
                started_at.pop(future, None)
                try:
                    value, elapsed, events, metrics = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    broken.append((index, unfinished(index)))
                    continue
                except Exception as error:
                    if retry is not None and retry.should_retry(
                        error, attempts[index]
                    ):
                        obs.counter("runner.retries").inc()
                        obs.event(
                            "task.retry", index=index,
                            attempt=attempts[index],
                        )
                        delay = retry.delay_for(
                            attempts[index], task_key=index
                        )
                        attempts[index] += 1
                        requeue.append((index, delay))
                    else:
                        finalise(index, TaskOutcome(
                            ok=False, error=traceback.format_exc(),
                            attempts=attempts[index],
                        ))
                    continue
                obs.absorb(events, metrics)
                finalise(index, TaskOutcome(
                    ok=True,
                    value=value,
                    elapsed_seconds=elapsed,
                    trace_events=events,
                    metrics=metrics,
                    attempts=attempts[index],
                ))

            if pool_broken:
                # The whole pool is dead: every still-pending future is
                # doomed too.  Tasks that had started and not finished
                # when it broke are charged an attempt (one of them is
                # the killer, and which one cannot be told); the others
                # requeue free.
                for future in list(pending):
                    index = pending.pop(future)
                    started_at.pop(future, None)
                    broken.append((index, unfinished(index)))
                if not any(w for _idx, w in broken):
                    # No task had started: a worker died outside any
                    # task.  Attribution is impossible, so charge an
                    # attempt to every victim — this keeps a
                    # deterministically-crashing task from being
                    # requeued for free forever.
                    broken = [(index, True) for index, _w in broken]
                for index, was_running in sorted(broken):
                    obs.counter("runner.worker_task_losses").inc()
                    if not was_running:
                        requeue.append((index, 0.0))
                    elif (
                        retry is not None
                        and retry.retry_pool_breaks
                        and attempts[index] < retry.max_attempts
                    ):
                        obs.counter("runner.retries").inc()
                        delay = retry.delay_for(
                            attempts[index], task_key=index
                        )
                        attempts[index] += 1
                        requeue.append((index, delay))
                    else:
                        finalise(index, TaskOutcome(
                            ok=False,
                            error=(
                                "worker process died abruptly "
                                "(BrokenProcessPool — killed, segfaulted "
                                "or OOM-reaped) and the task was out of "
                                "retries"
                            ),
                            attempts=attempts[index],
                        ))
                obs.counter("runner.worker_deaths").inc()
                respawn()
                for index, delay in requeue:
                    submit(index, delay)
                continue

            if timeout is not None:
                now = clock.perf_seconds()
                expired = [
                    (future, index)
                    for future, index in pending.items()
                    if future in started_at
                    and now - started_at[future] >= timeout
                ]
                if expired:
                    for future, index in expired:
                        elapsed = now - started_at.pop(future)
                        pending.pop(future)
                        obs.counter("runner.timeouts").inc()
                        finalise(index, TaskOutcome(
                            ok=False,
                            error=(
                                f"timed out after {elapsed:.3f}s "
                                f"({timeout}s per-task budget); "
                                "straggler worker reaped"
                            ),
                            elapsed_seconds=elapsed,
                            attempts=attempts[index],
                            timed_out=True,
                        ))
                    # The stragglers hold workers hostage; reclaim them
                    # by respawning the pool and requeuing the innocents
                    # (no attempt charged — they never misbehaved).
                    survivors = sorted(pending.values())
                    pending.clear()
                    started_at.clear()
                    respawn()
                    for index in survivors:
                        submit(index)
                    for index, delay in requeue:
                        submit(index, delay)
                    continue

            for index, delay in requeue:
                submit(index, delay)
    except BaseException:
        # Interrupt / internal error: reap every worker before
        # propagating so no orphan outlives the call (the Ctrl-C path
        # of `repro suite` rides on this).
        _terminate_pool(pool)
        raise
    pool.shutdown(wait=True, cancel_futures=True)
    return outcomes


@dataclass
class WorkloadOutcome:
    """Result of analysing (or failing to analyse) one suite workload."""

    name: str
    ok: bool
    session: Optional[AnalysisSession] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    cache_hit: bool = False
    #: tries the runner spent on this workload (>1 = retried)
    attempts: int = 1
    #: completed in a previous run and skipped via ``resume``
    resumed: bool = False

    @property
    def baseline_cycles(self) -> Optional[int]:
        return self.session.baseline_result.cycles if self.ok else None

    @property
    def baseline_cpi(self) -> Optional[float]:
        return self.session.baseline_cpi if self.ok else None


@dataclass
class SuiteReport:
    """Ordered outcomes of one suite run plus aggregate bookkeeping."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> List[WorkloadOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[WorkloadOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def exit_code(self) -> int:
        """Process exit code for this report: ``0`` all analysed,
        ``3`` partial failure (some workloads failed after retries but
        the report is still useful), ``1`` nothing succeeded."""
        if not self.failed:
            return EXIT_OK
        if self.succeeded:
            return EXIT_PARTIAL_FAILURE
        return EXIT_ALL_FAILED

    def session(self, name: str) -> AnalysisSession:
        """The named workload's session; raises if it failed or is absent."""
        for outcome in self.outcomes:
            if outcome.name == name:
                if not outcome.ok:
                    raise RuntimeError(
                        f"workload {name!r} failed: {outcome.error}"
                    )
                return outcome.session
        raise KeyError(f"no outcome for workload {name!r}")

    @property
    def slowest(self) -> Optional[WorkloadOutcome]:
        """The outcome that took the longest wall-clock time (the
        parallel run's critical path), or ``None`` on an empty report."""
        timed = [o for o in self.outcomes if o.elapsed_seconds > 0]
        if not timed:
            return None
        return max(timed, key=lambda o: o.elapsed_seconds)

    def describe(self) -> str:
        lines = [
            f"{len(self.succeeded)}/{len(self.outcomes)} workloads analysed "
            f"in {self.wall_seconds:.2f}s with {self.jobs} job(s)"
        ]
        for outcome in self.outcomes:
            if outcome.ok:
                source = "cache" if outcome.cache_hit else "fresh"
                if outcome.resumed:
                    source = "resumed"
                note = (
                    f", {outcome.attempts} attempts"
                    if outcome.attempts > 1 else ""
                )
                lines.append(
                    f"  {outcome.name:<12} CPI {outcome.baseline_cpi:.3f} "
                    f"({outcome.elapsed_seconds:.2f}s, {source}{note})"
                )
            else:
                first_line = (outcome.error or "").strip().splitlines()
                reason = first_line[-1] if first_line else "unknown error"
                lines.append(f"  {outcome.name:<12} FAILED: {reason}")
        slowest = self.slowest
        if slowest is not None:
            lines.append(
                f"slowest: {slowest.name} "
                f"({slowest.elapsed_seconds:.2f}s)"
            )
        return "\n".join(lines)


def _analyze_one(
    name: str,
    macros: int,
    seed: int,
    config: Optional[MicroarchConfig],
    analyze_kwargs: Dict,
    cache_dir: Optional[str],
    factory: Optional[Callable] = None,
    raise_errors: bool = False,
) -> WorkloadOutcome:
    """Worker body: generate, analyse (through the cache) and report.

    Module-level so it pickles for the process pool; the cache is
    re-opened per worker from its path rather than shipped as an object.
    With *raise_errors* the exception propagates instead of being folded
    into a failed outcome — the suite runner sets it when a retry policy
    is armed, so :func:`parallel_map` (not this wrapper) decides whether
    a failure is transient.
    """
    start = clock.perf_seconds()
    try:
        build = factory or make_workload
        workload = build(name, macros, seed=seed)
        cache = ArtifactCache(cache_dir) if cache_dir else None
        session = analyze(workload, config=config, cache=cache,
                          **analyze_kwargs)
        return WorkloadOutcome(
            name=name,
            ok=True,
            session=session,
            elapsed_seconds=clock.perf_seconds() - start,
            cache_hit=bool(cache and cache.hits),
        )
    except Exception:
        if raise_errors:
            raise
        return WorkloadOutcome(
            name=name,
            ok=False,
            error=traceback.format_exc(),
            elapsed_seconds=clock.perf_seconds() - start,
        )


def run_suite(
    names: Sequence[str] = (),
    macros: int = 500,
    seed: int = 1,
    config: Optional[MicroarchConfig] = None,
    jobs: int = 1,
    cache: Union[None, str, pathlib.Path, ArtifactCache] = None,
    timeout: Optional[float] = None,
    workload_factory: Optional[Callable] = None,
    obs=None,
    retry: Optional[RetryPolicy] = None,
    checkpoint: Union[None, str, pathlib.Path] = None,
    resume: bool = False,
    **analyze_kwargs,
) -> SuiteReport:
    """Analyse a set of suite workloads, optionally in parallel.

    Args:
        names: workload names (the full canonical suite if empty).
        macros / seed: workload generation coordinates.
        config: structure + latency design point (Table II default).
        jobs: worker processes; ``1`` runs serially in-process (on a
            one-worker pool when *timeout* is set).
        cache: an :class:`ArtifactCache`, a cache directory path, or
            ``None`` to disable artifact reuse.
        timeout: per-workload wall-clock budget in seconds, stamped
            at the first 50 ms poll that sees the task in the pool's
            call queue (see :func:`parallel_map`), so queue and worker
            start-up time can count against it; an overrunning task is
            reported failed with its real elapsed time and its worker
            is reaped.
        workload_factory: replaces :func:`make_workload` — must be a
            picklable callable ``(name, macros, seed=...) -> Workload``
            (used by robustness tests and custom suites).
        obs: an :class:`~repro.obs.Observer`; per-workload pipeline
            spans (worker-side in parallel mode) are merged into its
            trace.  Defaults to the ambient observer.
        retry: a :class:`~repro.runtime.resilience.RetryPolicy` applied
            per workload — transient failures and worker deaths are
            retried with backoff; a workload still failing afterwards
            degrades gracefully into a failed outcome in an otherwise
            complete report (see :attr:`SuiteReport.exit_code`).
        checkpoint: path to a
            :class:`~repro.runtime.resilience.SuiteCheckpoint` journal,
            atomically rewritten as each workload completes.
        resume: skip workloads the checkpoint records as completed,
            reloading their sessions through the (required) artifact
            cache; the journal's fingerprint must match this run's
            configuration or a
            :class:`~repro.runtime.resilience.CheckpointMismatchError`
            is raised.
        **analyze_kwargs: forwarded to :func:`repro.dse.pipeline.analyze`
            (reduction knobs, ``warm_caches``, ...).

    Returns:
        A :class:`SuiteReport` whose outcomes follow the order of
        *names* regardless of completion order.
    """
    # A custom factory may implement workloads outside the canonical
    # suite, so name validation only applies to the default generator.
    if workload_factory is None:
        selected = resolve_names(names)
    else:
        selected = tuple(names) or suite_names()
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if resume and cache is None:
        raise ValueError(
            "resuming a suite requires an artifact cache (completed "
            "workloads reload their sessions from it)"
        )
    obs = obs if obs is not None else get_observer()
    cache = open_cache(cache)
    cache_dir = str(cache.root) if cache is not None else None
    start = clock.perf_seconds()

    journal: Optional[SuiteCheckpoint] = None
    journal_path: Optional[pathlib.Path] = None
    completed: frozenset = frozenset()
    if checkpoint is not None:
        journal_path = pathlib.Path(checkpoint).expanduser()
        fingerprint = suite_fingerprint(
            selected, macros, seed, config, analyze_kwargs,
            factory=workload_factory,
        )
        if resume and journal_path.exists():
            journal = SuiteCheckpoint.load(journal_path)
            journal.validate(fingerprint)
            completed = frozenset(journal.completed) & frozenset(selected)
        else:
            journal = SuiteCheckpoint(fingerprint=fingerprint)
            journal.save(journal_path)

    with obs.span("suite.run", workloads=len(selected), jobs=jobs):
        # Workloads journalled as done reload in-process through the
        # cache (a hit is ~ms); everything else goes to the pool.
        resumed: Dict[str, WorkloadOutcome] = {}
        for name in sorted(completed):
            outcome = _analyze_one(
                name, macros, seed, config, analyze_kwargs, cache_dir,
                workload_factory,
            )
            outcome.resumed = True
            resumed[name] = outcome
        if resumed:
            obs.counter("suite.resumed_workloads").inc(len(resumed))
        remaining = [name for name in selected if name not in resumed]
        tasks = [
            (name, macros, seed, config, analyze_kwargs, cache_dir,
             workload_factory, retry is not None)
            for name in remaining
        ]

        def journal_result(index: int, outcome: TaskOutcome) -> None:
            if journal is None or not outcome.ok:
                return
            workload_outcome = outcome.value
            if workload_outcome.ok:
                journal.mark(remaining[index], journal_path)

        results = parallel_map(
            _analyze_one, tasks, jobs=jobs, timeout=timeout, obs=obs,
            retry=retry,
            on_result=journal_result if journal is not None else None,
        )
    by_name: Dict[str, WorkloadOutcome] = dict(resumed)
    for name, result in zip(remaining, results):
        if result.ok:
            outcome = result.value
            # _analyze_one's in-worker measurement is authoritative, but
            # a task that failed to even report gets the pool's timing.
            if outcome.elapsed_seconds == 0.0:
                outcome.elapsed_seconds = result.elapsed_seconds
        else:
            outcome = WorkloadOutcome(
                name=name,
                ok=False,
                error=result.error,
                elapsed_seconds=result.elapsed_seconds,
            )
        outcome.attempts = result.attempts
        by_name[name] = outcome
    report = SuiteReport(
        outcomes=[by_name[name] for name in selected],
        wall_seconds=clock.perf_seconds() - start,
        jobs=jobs,
    )
    if obs.enabled:
        obs.gauge("suite.wall_seconds").set(report.wall_seconds)
        obs.counter("suite.workloads").inc(len(selected))
        obs.counter("suite.failures").inc(len(report.failed))
        slowest = report.slowest
        if slowest is not None:
            obs.gauge("suite.slowest_seconds").set(
                slowest.elapsed_seconds
            )
    return report
