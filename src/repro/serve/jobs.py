"""Async job lifecycle for long-running design-space sweeps.

Pricing one point on a warm model is microseconds, but a full sweep
over millions of points takes long enough that it should not hold an
HTTP request open.  ``POST /jobs`` therefore returns immediately with a
job id; the sweep runs in the background on an executor thread and
clients poll ``GET /jobs/<id>`` until the state machine lands in a
terminal state::

    queued ──> running ──> done
                      └──> failed

A sweep that raises moves its job to ``failed`` with the error recorded;
the daemon keeps serving.  Each job records its spans and metrics into
a private observer whose contents are absorbed into the server's
registry on completion.
"""

from __future__ import annotations

import dataclasses
import secrets
import threading
from typing import Callable, Dict, List, Optional

from repro.dse.designspace import DesignSpace
from repro.dse.sweep import sweep_space
from repro.obs import clock
from repro.obs.observer import Observer
from repro.serve.protocol import JobRequest

__all__ = ["JobRecord", "JobRegistry", "execute_sweep", "JOB_STATES"]

#: Every state a job can report, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Completed (done/failed) jobs kept for polling before eviction.
DEFAULT_RETENTION = 256


@dataclasses.dataclass
class JobRecord:
    """One submitted sweep and everything a client may ask about it."""

    job_id: str
    request: JobRequest
    state: str = "queued"
    created: str = ""
    started: Optional[str] = None
    finished: Optional[str] = None
    elapsed_seconds: Optional[float] = None
    error: Optional[str] = None
    result: Optional[object] = None  # ExplorationResult when done

    def status_dict(self) -> dict:
        """The ``GET /jobs/<id>`` body."""
        payload = {
            "job_id": self.job_id,
            "state": self.state,
            "request": self.request.to_dict(),
            "num_points": self.request.num_points,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
        }
        if self.result is not None:
            payload["num_meeting_target"] = self.result.num_meeting_target
            payload["front_size"] = len(self.result.pareto_front())
        return payload

    def front_dict(self) -> dict:
        """The ``GET /jobs/<id>/front`` body (terminal ``done`` only)."""
        summary = self.result.as_dict()
        summary["job_id"] = self.job_id
        return summary


class JobRegistry:
    """Thread-safe id allocation and bounded retention of job records.

    Ids are allocated under a lock from a monotonic counter plus a
    random suffix, so they are unique even under concurrent submission
    from many event-loop tasks and executor threads (property-tested),
    and unguessable enough not to collide across daemon restarts
    sharing a cache directory.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._next_serial = 1
        self._retention = retention

    def create(self, request: JobRequest) -> JobRecord:
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            job_id = f"job-{serial:06d}-{secrets.token_hex(4)}"
            record = JobRecord(
                job_id=job_id, request=request, created=clock.wall_iso()
            )
            self._records[job_id] = record
            self._order.append(job_id)
            self._evict_locked()
            return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for ``/metrics`` gauges)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for record in self._records.values():
                counts[record.state] += 1
            return counts

    def active(self) -> int:
        counts = self.counts()
        return counts["queued"] + counts["running"]

    def _evict_locked(self) -> None:
        # Oldest *terminal* records go first; live jobs are never
        # evicted.  One ordered pass: walk the insertion order once,
        # dropping terminal records until the overflow is gone and
        # keeping everything else — O(n) regardless of how many
        # evictions happen or how many retained records are live
        # (the old loop re-scanned per eviction and, when every record
        # was live, re-scanned fruitlessly per insertion).
        overflow = len(self._records) - self._retention
        if overflow <= 0:
            return
        kept: List[str] = []
        for job_id in self._order:
            if (
                overflow > 0
                and self._records[job_id].state in ("done", "failed")
            ):
                del self._records[job_id]
                overflow -= 1
            else:
                kept.append(job_id)
        self._order = kept


def execute_sweep(
    session,
    request: JobRequest,
    *,
    obs: Observer,
    model_transform: Optional[Callable] = None,
):
    """Run one job's sweep synchronously (called from an executor thread).

    Args:
        session: the warm :class:`~repro.dse.pipeline.AnalysisSession`.
        request: the validated job request.
        obs: the job's private observer (spans/metrics land here).
        model_transform: test seam mirroring ``run_suite``'s
            ``workload_factory``: wraps the predictor before the sweep,
            letting the chaos suite substitute a fault-injecting model
            without patching server internals.

    Returns:
        The sweep's :class:`~repro.dse.explorer.ExplorationResult`.
    """
    space = DesignSpace.from_mapping(
        dict(request.axes), base=session.config.latency
    )
    predictor = session.rpstacks
    if model_transform is not None:
        predictor = model_transform(predictor)
    return sweep_space(
        predictor,
        space,
        request.target_cpi,
        chunk_size=request.chunk_size,
        obs=obs,
    )
