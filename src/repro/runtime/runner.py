"""Parallel suite runner: fan ``analyze()`` across the workload suite.

The paper evaluates twelve SPEC analogues; analysing them serially is
pure fan-out waiting to happen (every workload is independent).  The
runner distributes the per-workload pipeline over long-lived worker
processes, each driven over its own pipe, with:

* **deterministic results** — outcomes are returned in request order
  and each worker's computation is bit-identical to the serial path
  (asserted by ``tests/runtime/test_differential.py``);
* **error isolation** — a workload whose generator or simulation raises
  is reported as a failed outcome (with its traceback) without sinking
  the rest of the suite;
* **fault tolerance** — with ``retries=N``, a task that raises, or
  whose worker process dies (SIGKILL, segfault, OOM kill), runs again
  up to ``N`` more times after a fixed exponential backoff
  (:func:`backoff_delay`); a death is charged to the one task that
  worker ran, and only that worker is replaced;
* **per-task deadlines** — a wall-clock budget per task, running from
  when a worker is handed the attempt, after its backoff; an
  overrunning task is reported failed with its *real* elapsed time and
  its worker alone is killed and joined, never orphaned;
* **cache integration** — workers share one on-disk
  :class:`~repro.runtime.cache.ArtifactCache`, whose atomic-rename
  writes make concurrent population safe, and which is also how an
  interrupted suite continues: rerun it on the same cache and every
  finished workload loads as a hit.

Processes rather than threads, because a thread can neither be killed
at a deadline nor survive a segfault (measurements in ``docs/cli.md``).
Workloads are regenerated inside each worker from their (name, macros,
seed) coordinates instead of being pickled over, which keeps task
payloads tiny and exercises the same deterministic-generation guarantee
the single-simulation methodology rests on.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pathlib
import pickle
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.config import MicroarchConfig
from repro.dse.pipeline import AnalysisSession, analyze
from repro.obs import clock
from repro.obs.observer import Observer, get_observer, use_observer
from repro.runtime.cache import ArtifactCache, open_cache
from repro.workloads.suite import make_workload, resolve_names, suite_names

#: Suite exit codes (`python -m repro suite`): every workload analysed.
EXIT_OK = 0
#: Every workload failed (or the command itself could not run).
EXIT_ALL_FAILED = 1
#: Some workloads failed after retries but the suite still produced a
#: partial report — distinct from 1 so schedulers can tell "rerun the
#: stragglers" from "everything is broken" (2 is argparse's).
EXIT_PARTIAL_FAILURE = 3


def backoff_delay(failures: int) -> float:
    """Seconds a task waits before its next attempt after its
    *failures*-th failed one: 0.05, 0.1, 0.2, ... doubling up to 2.0."""
    return min(2.0, 0.05 * 2 ** (failures - 1))


@dataclass
class TaskOutcome:
    """Result of one :func:`parallel_map` task (value or traceback).

    Besides the payload, each outcome carries its own wall-clock cost,
    how many attempts it took (>1 means a retry earned its keep), and —
    when the parent ran with an enabled observer — the trace events and
    metrics its worker recorded, so worker-side spans merge into the
    parent's timeline instead of vanishing with the process.
    """

    ok: bool
    value: Any = None
    error: Optional[str] = None
    #: wall-clock seconds the final attempt spent executing, until it
    #: returned, raised, its worker died, or (on a timeout) its worker
    #: was killed
    elapsed_seconds: float = 0.0
    #: Chrome trace events recorded inside the worker (capture mode)
    trace_events: Optional[List[dict]] = None
    #: worker-side metrics registry export (capture mode)
    metrics: Optional[dict] = None
    #: total tries this task consumed (1 = succeeded/failed first try)
    attempts: int = 1
    #: the task exhausted its per-task deadline
    timed_out: bool = False


def _attempt(fn: Callable, args: Tuple, capture: bool, label: str,
             delay: float):
    """Run one attempt at ``fn(*args)``, after sleeping its backoff
    *delay*: timed, and with *capture* under a fresh observer whose
    spans and metrics ship back with the result.

    Returns ``(True, (value, elapsed, events, metrics))`` or, if it
    raised, ``(False, (traceback, elapsed))``, so no exception object
    has to cross a pipe.  Worker processes run it with capture; the
    in-process path runs it without, the parent observer being ambient
    there.
    """
    if delay > 0:
        time.sleep(delay)
    start = clock.perf_seconds()
    try:
        if not capture:
            value = fn(*args)
            return True, (value, clock.perf_seconds() - start, None, None)
        worker_obs = Observer(enabled=True, progress_stream=None)
        with use_observer(worker_obs):
            with worker_obs.span(f"task.{label}"):
                value = fn(*args)
        return True, (
            value,
            clock.perf_seconds() - start,
            worker_obs.tracer.export_events(),
            worker_obs.metrics.export(),
        )
    except Exception:
        return False, (traceback.format_exc(), clock.perf_seconds() - start)


def _serve(conn, parent_end) -> None:
    """Worker process body: run each attempt the parent sends over
    *conn* and reply with its outcome, until the parent sends ``None``
    or is gone.  Ctrl-C is the parent's to handle: it kills its
    workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The forked copy of the parent's end would keep this pipe open
    # after the parent dies, and recv() would wait forever.
    parent_end.close()
    try:
        for message in iter(conn.recv, None):
            reply = _attempt(*message)
            try:
                data = ForkingPickler.dumps(reply)
            except Exception:  # an unpicklable return value
                elapsed = reply[1][1]
                data = ForkingPickler.dumps(
                    (False, (traceback.format_exc(), elapsed))
                )
            conn.send_bytes(data)
    except (EOFError, OSError):
        pass  # the parent died; _attempt itself raises neither


class _Worker:
    """One worker process, the parent's end of its pipe, and the
    attempt it was last handed."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(child, self.conn), daemon=True
        )
        self.process.start()
        # Only the worker may hold its end, or its death shows no EOF.
        child.close()
        self.index = -1
        #: when the attempt starts running, its backoff over
        self.started = 0.0

    def reap(self) -> None:
        self.process.join()
        self.conn.close()

    def kill(self) -> None:
        self.process.kill()
        self.reap()


def parallel_map(
    fn: Callable,
    tasks: Sequence[Tuple],
    jobs: int = 1,
    timeout: Optional[float] = None,
    obs=None,
    retries: int = 0,
) -> List["TaskOutcome"]:
    """Apply ``fn(*args)`` to every argument tuple, optionally across
    worker processes.

    Attempts wait in a queue, a retried task first in line, and every
    mode runs them through the same attempt and settle-or-retry code.
    ``min(jobs, len(tasks))`` long-lived workers each take one attempt
    at a time over their own pipe, so the parent always knows which
    task a worker runs and since when:

    * **deterministic ordering** — outcomes follow *tasks* order, not
      completion order;
    * **error isolation** — a task that raises, or whose arguments or
      value do not pickle, yields a failed :class:`TaskOutcome`
      carrying its traceback instead of sinking the whole batch;
    * **retries** — a failed attempt, or a worker death (EOF on its
      pipe: SIGKILL, segfault, OOM kill) charged to that worker's task
      alone, runs again while the task has used at most *retries*
      attempts, after :func:`backoff_delay` (slept worker-side); one
      worker replaces a dead one;
    * **per-task deadlines** — *timeout* bounds each attempt's wall
      clock from when its worker is handed it, after its backoff; an
      overrun records a failed outcome with the real elapsed time and
      kills that worker alone, which one worker replaces;
    * **per-task timing** — every outcome reports its own elapsed
      seconds and attempt count, and with an enabled observer each
      worker's spans and metrics are captured and merged back into the
      parent (:meth:`~repro.obs.observer.Observer.absorb`).

    Every worker is stopped and joined before the call returns or
    raises, an interrupted call included.  A worker whose parent is
    killed outright exits once its current attempt ends.

    Args:
        fn: a picklable module-level callable.
        tasks: one positional-argument tuple per task.
        jobs: worker processes; ``1`` without a *timeout* runs each
            attempt in-process (retries apply, backoff slept in the
            parent).  A deadline needs a worker to kill, so ``jobs=1``
            with a *timeout* runs on one worker process.
        timeout: per-task wall-clock budget in seconds.
        obs: observer to record into; defaults to the ambient one.
        retries: extra attempts a failing task may take; ``0`` fails
            tasks on their first error.

    Returns:
        One :class:`TaskOutcome` per task, in *tasks* order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    obs = obs if obs is not None else get_observer()
    tasks = list(tasks)
    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
    attempts: List[int] = [1] * len(tasks)
    #: attempts waiting for a worker, as (task index, backoff delay)
    queue = deque((index, 0.0) for index in range(len(tasks)))

    def settle(index: int, reply) -> None:
        """Record an attempt's reply: requeue a failure first in line
        while retries remain, else finalise the task."""
        ok, payload = reply
        if ok:
            value, elapsed, events, metrics = payload
            obs.absorb(events, metrics)
            outcomes[index] = TaskOutcome(
                ok=True, value=value, elapsed_seconds=elapsed,
                trace_events=events, metrics=metrics,
                attempts=attempts[index],
            )
            return
        error, elapsed = payload
        if attempts[index] > retries:
            outcomes[index] = TaskOutcome(
                ok=False, error=error, elapsed_seconds=elapsed,
                attempts=attempts[index],
            )
            return
        obs.counter("runner.retries").inc()
        obs.event("task.retry", index=index, attempt=attempts[index])
        queue.appendleft((index, backoff_delay(attempts[index])))
        attempts[index] += 1

    if jobs == 1 and timeout is None:
        with use_observer(obs):
            while queue:
                index, delay = queue.popleft()
                with obs.span("task", index=index, attempt=attempts[index]):
                    reply = _attempt(fn, tasks[index], False, str(index),
                                     delay)
                settle(index, reply)
        return outcomes

    capture = obs.enabled
    width = min(jobs, len(tasks))
    workers: List[_Worker] = []
    busy: Dict[Any, _Worker] = {}

    def hand(worker: _Worker) -> None:
        """Send *worker* the first queued attempt whose message pickles
        (an attempt whose arguments do not is settled as failed)."""
        while queue:
            index, delay = queue.popleft()
            message = (fn, tasks[index], capture, str(index), delay)
            try:
                data = ForkingPickler.dumps(message)
            except Exception:
                settle(index, (False, (traceback.format_exc(), 0.0)))
                continue
            try:
                worker.conn.send_bytes(data)
            except OSError:
                pass  # a dead worker: the wait below reads its EOF
            worker.index = index
            worker.started = clock.perf_seconds() + delay
            busy[worker.conn] = worker
            return

    try:
        while queue or busy:
            idle = [w for w in workers if w.conn not in busy]
            while queue and (idle or len(workers) < width):
                if not idle:
                    workers.append(_Worker())
                    idle.append(workers[-1])
                hand(idle.pop())
            if not busy:
                continue
            wait_for = None
            if timeout is not None:
                first = min(w.started for w in busy.values())
                wait_for = max(0.0, first + timeout - clock.perf_seconds())
            for conn in multiprocessing.connection.wait(list(busy), wait_for):
                worker = busy.pop(conn)
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError):
                    workers.remove(worker)
                    worker.reap()
                    obs.counter("runner.worker_deaths").inc()
                    settle(worker.index, (False, (
                        f"worker process died (exit code "
                        f"{worker.process.exitcode}: killed, segfaulted "
                        f"or out of memory) while running task "
                        f"{worker.index}",
                        max(0.0, clock.perf_seconds() - worker.started),
                    )))
                    continue
                # Keep the worker busy while the parent unpickles.
                index = worker.index
                hand(worker)
                settle(index, pickle.loads(data))
            if timeout is None:
                continue
            now = clock.perf_seconds()
            for worker in list(busy.values()):
                elapsed = now - worker.started
                if elapsed < timeout:
                    continue
                del busy[worker.conn]
                workers.remove(worker)
                worker.kill()
                obs.counter("runner.timeouts").inc()
                outcomes[worker.index] = TaskOutcome(
                    ok=False,
                    error=(
                        f"timed out after {elapsed:.3f}s "
                        f"({timeout}s per-task budget); "
                        "straggler worker killed"
                    ),
                    elapsed_seconds=elapsed,
                    attempts=attempts[worker.index],
                    timed_out=True,
                )
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    # Stop rather than close: a later worker inherits this one's parent
    # end, so closing it would never reach the worker as EOF.
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:
            pass
    for worker in workers:
        worker.reap()
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
) -> WorkloadOutcome:
    """Worker body: generate, analyse (through the cache) and report.

    Module-level so it pickles into worker processes; the cache is
    re-opened per worker from its path rather than shipped as an object.
    A failure raises, so :func:`parallel_map` records (or retries) it.
    """
    build = factory or make_workload
    workload = build(name, macros, seed=seed)
    cache = ArtifactCache(cache_dir) if cache_dir else None
    session = analyze(workload, config=config, cache=cache, **analyze_kwargs)
    return WorkloadOutcome(
        name=name, ok=True, session=session,
        cache_hit=bool(cache and cache.hits),
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
    retries: int = 0,
    **analyze_kwargs,
) -> SuiteReport:
    """Analyse a set of suite workloads, optionally in parallel.

    An interrupted run is continued by running it again on the same
    *cache*: each workload that finished is stored there atomically and
    loads as a hit.

    Args:
        names: workload names (the full canonical suite if empty).
        macros / seed: workload generation coordinates.
        config: structure + latency design point (Table II default).
        jobs: worker processes; ``1`` runs serially in-process (on one
            worker process when *timeout* is set).
        cache: an :class:`ArtifactCache`, a cache directory path, or
            ``None`` to disable artifact reuse.
        timeout: per-workload wall-clock budget in seconds, from when
            a worker is handed the attempt (see :func:`parallel_map`);
            an overrunning task is reported failed with its real
            elapsed time and its worker is killed.
        workload_factory: replaces :func:`make_workload` — must be a
            picklable callable ``(name, macros, seed=...) -> Workload``
            (used by robustness tests and custom suites).
        obs: an :class:`~repro.obs.Observer`; per-workload pipeline
            spans (worker-side in parallel mode) are merged into its
            trace.  Defaults to the ambient observer.
        retries: extra attempts per workload after a failure or a
            worker death, with :func:`backoff_delay` between them; a
            workload still failing afterwards degrades gracefully into
            a failed outcome in an otherwise complete report (see
            :attr:`SuiteReport.exit_code`).
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
    obs = obs if obs is not None else get_observer()
    cache = open_cache(cache)
    cache_dir = str(cache.root) if cache is not None else None
    start = clock.perf_seconds()
    tasks = [
        (name, macros, seed, config, analyze_kwargs, cache_dir,
         workload_factory)
        for name in selected
    ]
    with obs.span("suite.run", workloads=len(selected), jobs=jobs):
        results = parallel_map(
            _analyze_one, tasks, jobs=jobs, timeout=timeout, obs=obs,
            retries=retries,
        )
    outcomes = []
    for name, result in zip(selected, results):
        outcome = result.value if result.ok else WorkloadOutcome(
            name=name, ok=False, error=result.error
        )
        outcome.elapsed_seconds = result.elapsed_seconds
        outcome.attempts = result.attempts
        outcomes.append(outcome)
    report = SuiteReport(
        outcomes=outcomes,
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
