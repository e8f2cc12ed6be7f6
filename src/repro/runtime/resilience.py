"""Fault-tolerant execution: retry policies and the suite journal.

Long campaigns die for boring reasons — a worker segfaults, a box
reboots mid-suite, one workload deadlocks — and the ROADMAP's
production-scale north star means those deaths must cost a retry or a
resume, never a from-scratch rerun.  This module is the policy layer
the execution machinery (:func:`repro.runtime.runner.parallel_map`,
:func:`repro.runtime.runner.run_suite`) builds its resilience on:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (a pure function of seed, task and attempt, so
  chaos tests replay bit-identically and the documented delay cap is a
  provable bound, property-tested in ``tests/runtime``);
* :class:`SuiteCheckpoint` — the suite runner's journal of completed
  workloads, enabling ``suite --resume`` to skip finished work; it is
  written with the same stage-then-``os.replace`` discipline as the
  artifact cache, so a crash can never leave a torn journal;
* :func:`suite_fingerprint`, which makes stale resumes *loud*: resuming
  a journal written for other suite inputs fails with a
  :class:`CheckpointMismatchError` instead of silently skipping
  workloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

__all__ = [
    "RetryPolicy",
    "CheckpointError",
    "CheckpointMismatchError",
    "SuiteCheckpoint",
    "suite_fingerprint",
]

#: Bump when the checkpoint layout changes incompatibly; old files are
#: rejected with a clear error instead of being misread.
CHECKPOINT_FORMAT = 1


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The delay before attempt ``n + 1`` (after ``n`` failures) is::

        min(max_delay, base_delay * backoff_factor ** (n - 1))
            * (1 + jitter_fraction * u)

    where ``u ∈ [0, 1)`` is a pure hash of ``(seed, task_key, n)`` —
    the same task retried under the same policy always waits the same
    amount, so fault-injection runs are replayable and the total delay
    a single task can accumulate is bounded by :meth:`total_delay_cap`
    (property-tested in ``tests/runtime/test_resilience.py``).

    Attributes:
        max_attempts: total tries per task (1 = no retries).
        base_delay: seconds before the first retry, pre-jitter.
        backoff_factor: multiplier applied per further retry.
        max_delay: pre-jitter ceiling for any single delay.
        jitter_fraction: delays stretch by up to this fraction.
        seed: folded into the jitter hash (vary to decorrelate runs).
        retryable: exception classes considered transient; anything
            else fails the task immediately.  A worker-process death
            (a SIGKILL or segfault) has no exception: it is retried
            whatever this holds, while attempts remain.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter_fraction: float = 0.1
    seed: int = 0
    retryable: Tuple[type, ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1.0")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be within [0, 1]")

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether a task that failed on *attempt* (1-based) with
        *error* deserves another try under this policy."""
        if attempt >= self.max_attempts:
            return False
        return isinstance(error, self.retryable)

    def delay_for(self, attempt: int, task_key: Any = 0) -> float:
        """Seconds to wait before re-running a task whose *attempt*
        (1-based) just failed.  Deterministic in (policy, task, attempt).
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = self.base_delay * self.backoff_factor ** (attempt - 1)
        capped = min(self.max_delay, raw)
        return capped * (1.0 + self.jitter_fraction * self._unit(
            task_key, attempt
        ))

    def total_delay_cap(self) -> float:
        """Documented upper bound on the backoff a single task can
        accumulate across all its retries (jitter included)."""
        total = 0.0
        for attempt in range(1, self.max_attempts):
            raw = self.base_delay * self.backoff_factor ** (attempt - 1)
            total += min(self.max_delay, raw)
        return total * (1.0 + self.jitter_fraction)

    def _unit(self, task_key: Any, attempt: int) -> float:
        """A deterministic pseudo-uniform draw in ``[0, 1)``."""
        token = f"{self.seed}|{task_key!r}|{attempt}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, torn or of an unknown format."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint was recorded under different inputs.

    Carries the first mismatching component in :attr:`field` so callers
    (and tests) can tell *which* input drifted.
    """

    def __init__(self, field_name: str, stored: Any, current: Any) -> None:
        self.field = field_name
        self.stored = stored
        self.current = current
        super().__init__(
            f"checkpoint was written for a different {field_name}: "
            f"stored {stored!r}, current run has {current!r}; "
            "delete the checkpoint (or point --checkpoint elsewhere) to "
            "start fresh"
        )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def suite_fingerprint(
    names: Sequence[str],
    macros: int,
    seed: int,
    config,
    analyze_kwargs: Dict,
    factory=None,
) -> str:
    """SHA-256 over everything that shapes a suite run's outcomes."""
    from repro.simulator.traceio import config_to_dict

    payload = {
        "names": list(names),
        "macros": int(macros),
        "seed": int(seed),
        "config": None if config is None else config_to_dict(config),
        "analyze_kwargs": sorted(
            (key, repr(value)) for key, value in analyze_kwargs.items()
        ),
        "factory": (
            None
            if factory is None
            else f"{factory.__module__}.{getattr(factory, '__qualname__', repr(factory))}"
        ),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Suite checkpoint
# ---------------------------------------------------------------------------


def _atomic_write(path: pathlib.Path, writer) -> None:
    """Stage bytes in a sibling temp file, publish with ``os.replace``.

    The same crash-safety discipline as the artifact cache: a reader
    only ever sees a complete file, never a torn one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            writer(stream)
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass
class SuiteCheckpoint:
    """Journal of a suite run: which workloads already finished cleanly.

    A tiny JSON file rewritten atomically after every completed
    workload.  On ``--resume`` the runner validates the fingerprint,
    skips the recorded names (reloading their sessions through the
    artifact cache) and only dispatches the remainder to the workers.
    """

    fingerprint: str
    completed: List[str] = field(default_factory=list)
    created: str = ""

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        from repro.obs import clock

        if not self.created:
            self.created = clock.wall_iso()
        path = pathlib.Path(path).expanduser()
        payload = {
            "format": CHECKPOINT_FORMAT,
            "kind": "suite",
            "fingerprint": self.fingerprint,
            "completed": list(self.completed),
            "created": self.created,
        }

        def writer(stream):
            stream.write(
                json.dumps(payload, indent=2).encode("utf-8")
            )

        _atomic_write(path, writer)
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "SuiteCheckpoint":
        path = pathlib.Path(path).expanduser()
        try:
            payload = json.loads(path.read_text())
        except Exception as error:
            raise CheckpointError(
                f"unreadable suite checkpoint {path}: {error}"
            ) from error
        if payload.get("format") != CHECKPOINT_FORMAT or (
            payload.get("kind") != "suite"
        ):
            raise CheckpointError(
                f"{path} is not a format-{CHECKPOINT_FORMAT} suite "
                "checkpoint"
            )
        return cls(
            fingerprint=payload["fingerprint"],
            completed=list(payload["completed"]),
            created=payload.get("created", ""),
        )

    def validate(self, fingerprint: str) -> None:
        if self.fingerprint != fingerprint:
            raise CheckpointMismatchError(
                "suite configuration", self.fingerprint, fingerprint
            )

    def mark(self, name: str, path: Union[str, pathlib.Path]) -> None:
        """Record *name* as completed and persist immediately."""
        if name not in self.completed:
            self.completed.append(name)
        self.save(path)
