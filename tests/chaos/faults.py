"""Deterministic fault injection for chaos tests.

The execution layer's resilience claims (retries, worker replacement,
continuing a suite from its cache) only mean something if tests can
make workers fail *on demand, reproducibly, in another process*.  This
module is that seam.

Faults are described by a **plan** — a mapping from task id to a fault
spec — published to worker processes through two environment variables
(set them before the workers fork and every worker sees the plan):

* ``REPRO_CHAOS_PLAN`` — path of the JSON plan file;
* ``REPRO_CHAOS_DIR`` — a scratch directory where each probe claims an
  attempt marker with ``O_CREAT | O_EXCL``, so attempts are counted
  across process boundaries (workers are separate, possibly replaced,
  processes — an in-memory counter would reset with every retry).

A task under test calls :func:`probe` with its task id.  If the ambient
plan has a spec for that id and the task is still within its faulty
attempts, the probe injects the fault:

* ``raise`` — raise :class:`ChaosError` (a transient, retryable error);
* ``hang`` — sleep ``hang_seconds`` (drives deadline/straggler tests);
* ``sigkill`` — ``SIGKILL`` its own process (drives worker-death
  recovery: EOF on that worker's pipe, no cleanup, no excuses).

Everything is deterministic: :func:`make_plan` derives the victim set
and fault kinds from a seed, and the injector itself has no randomness
— the n-th probe of a task id always behaves the same.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.model import RpStacksModel

PLAN_ENV = "REPRO_CHAOS_PLAN"
DIR_ENV = "REPRO_CHAOS_DIR"

KINDS = ("raise", "hang", "sigkill")

#: Safety valve for the attempt-marker scan; no test retries this much.
_MAX_ATTEMPTS_TRACKED = 10_000


class ChaosError(RuntimeError):
    """The injected transient failure (retried while retries remain)."""


def make_plan(
    seed: int,
    task_ids: Sequence[str],
    kinds: Tuple[str, ...] = ("raise", "sigkill"),
    fraction: float = 0.25,
    attempts: int = 1,
    hang_seconds: float = 30.0,
) -> Dict[str, dict]:
    """Derive a fault plan from *seed*: pick ``max(1, fraction)`` of the
    task ids and assign each a fault kind, all reproducibly."""
    import random

    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    rng = random.Random(seed)
    count = max(1, int(len(task_ids) * fraction))
    victims = sorted(rng.sample(list(task_ids), count))
    return {
        victim: {
            "kind": rng.choice(kinds),
            "attempts": attempts,
            "hang_seconds": hang_seconds,
        }
        for victim in victims
    }


def arm(plan: Dict[str, dict], base_dir) -> Dict[str, str]:
    """Write *plan* under *base_dir* and return the env vars that
    activate it (apply with ``monkeypatch.setenv`` so the fault zone
    ends with the test)."""
    base = pathlib.Path(base_dir)
    scratch = base / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    plan_path = base / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2))
    return {PLAN_ENV: str(plan_path), DIR_ENV: str(scratch)}


def _load_plan() -> Optional[Tuple[Dict[str, dict], pathlib.Path]]:
    plan_path = os.environ.get(PLAN_ENV)
    scratch = os.environ.get(DIR_ENV)
    if not plan_path or not scratch:
        return None
    with open(plan_path, "r") as stream:
        return json.load(stream), pathlib.Path(scratch)


def _claim_attempt(scratch: pathlib.Path, task_id: str) -> int:
    """Claim the next attempt number for *task_id* (1-based) by creating
    the first marker file that doesn't exist yet — atomic across
    processes, monotonic across worker replacements."""
    for attempt in range(1, _MAX_ATTEMPTS_TRACKED):
        marker = scratch / f"{task_id}.attempt{attempt}"
        try:
            os.close(os.open(str(marker), os.O_CREAT | os.O_EXCL))
            return attempt
        except FileExistsError:
            continue
    raise RuntimeError(f"chaos task {task_id!r} probed too many times")


def probe(task_id: str) -> int:
    """Fault-injection point: call this from the task under test.

    Returns the attempt number this probe claimed (0 when no plan is
    armed or *task_id* isn't a victim).  While the attempt is within the
    spec's ``attempts`` budget the configured fault fires instead.
    """
    loaded = _load_plan()
    if loaded is None:
        return 0
    plan, scratch = loaded
    spec = plan.get(task_id)
    if spec is None:
        return 0
    attempt = _claim_attempt(scratch, task_id)
    if attempt > int(spec.get("attempts", 1)):
        return attempt
    kind = spec["kind"]
    if kind == "raise":
        raise ChaosError(
            f"injected transient failure (task {task_id!r}, "
            f"attempt {attempt})"
        )
    if kind == "hang":
        time.sleep(float(spec.get("hang_seconds", 30.0)))
        return attempt
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise ValueError(f"unknown fault kind {kind!r}")


def chaos_workload(name: str, macros: int, seed: int = 1):
    """Drop-in ``workload_factory`` for :func:`repro.runtime.run_suite`
    that probes the fault plan (task id = workload name) before
    generating the real workload.  Module-level, so it pickles into
    worker processes."""
    from repro.workloads.suite import make_workload

    probe(name)
    return make_workload(name, macros, seed=seed)


def chaos_task(index: int, payload: int = 0) -> int:
    """Minimal :func:`parallel_map` task: probe (task id = index), then
    return a deterministic function of the arguments."""
    probe(str(index))
    return index * index + payload


class ChaosModel(RpStacksModel):
    """An :class:`~repro.core.model.RpStacksModel` that probes the fault
    plan before a sweep prices it.

    It copies the inner model's stacks, baseline, ``num_uops`` and stats,
    so it prices bit-identically to the inner model, and calls
    :func:`probe` with *probe_id* in :meth:`restricted`, which
    ``sweep_space`` calls once per sweep: each sweep consumes one
    attempt number, so a spec with ``attempts: 1`` faults exactly the
    first sweep run anywhere.
    """

    def __init__(self, inner: RpStacksModel, probe_id: str = "model") -> None:
        super().__init__(
            inner.segment_stacks,
            baseline=inner.baseline,
            num_uops=inner.num_uops,
            stats=inner.stats,
        )
        self.probe_id = probe_id

    def restricted(self, lo, hi) -> RpStacksModel:
        probe(self.probe_id)
        return super().restricted(lo, hi)
