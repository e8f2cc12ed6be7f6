"""The unified benchmark harness (``repro bench``).

Every committed headline number in this repo is produced by a
*scenario* registered here: a named, parameterised workload recipe
measured under one protocol instead of nineteen hand-rolled
``time.perf_counter`` loops.  The protocol:

* the workload is built once (setup excluded from timing), then run
  ``warmup`` throwaway reps followed by ``repeats`` timed reps;
* each timed rep runs under a **fresh enabled Observer** so the
  per-stage span totals (``sim.run``, ``graph.build``, ...) and metric
  counters emitted by the instrumented pipeline are captured per rep;
* timing goes through the :mod:`repro.obs.clock` seam (the only clock
  in the tree, enforced by ``tools/check_timing.py``) with the garbage
  collector paused across the timed body and an explicit collection
  between reps, so allocation debt from rep N is not billed to N+1;
* each rep returns a result digest; the harness asserts digests agree
  across reps (a benchmark that computes different answers per rep is
  measuring nothing) and stores the digest for cross-run parity;
* stage totals and counters reported in the record come from the
  *fastest* rep — the one :attr:`BenchRecord.min_seconds` describes.

The output is a :class:`~repro.obs.schema.BenchRecord` appended to the
scenario's ``BENCH_<scenario>.json`` trajectory at the repo root and
gated by :mod:`repro.obs.regress`.
"""

from __future__ import annotations

import gc
import os
import pathlib
import platform as _platform
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs import clock
from repro.obs.observer import Observer, use_observer
from repro.obs.schema import BenchRecord, SCHEMA_VERSION

__all__ = [
    "Scenario",
    "ScenarioRun",
    "register",
    "get_scenario",
    "scenario_names",
    "run_scenario",
    "env_fingerprint",
    "measure",
    "REPO_ROOT",
]

#: Default trajectory-store directory: the repo root (``BENCH_*.json``
#: files are committed, so they live where reviewers see them).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


# --------------------------------------------------------------------------
# measurement primitive
# --------------------------------------------------------------------------


def measure(fn: Callable[[], object]) -> float:
    """Time one call of *fn* through the clock seam, GC paused.

    Returns elapsed perf-counter seconds.  The GC is re-enabled (if it
    was on) and explicitly run afterwards so the next measurement does
    not inherit this one's garbage.
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = clock.perf_seconds()
        fn()
        elapsed = clock.perf_seconds() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    gc.collect()
    return elapsed


# --------------------------------------------------------------------------
# scenario registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A named, registered benchmark scenario.

    Attributes:
        name: registry key and trajectory-file stem.
        title: one-line human description for ``repro bench report``.
        recipe: ``recipe(scale) -> (body, digest_fn)`` — builds the
            workload at the resolved *scale* (setup is untimed) and
            returns the zero-arg timed body plus a zero-arg digest
            function run after each rep (may return ``None``).
        scales: per-tier scale knobs, e.g.
            ``{"full": {"macros": 2000}, "ci": {"macros": 300}}``.
        repeats / warmup: timed and throwaway rep counts.
        native_sensitive: scenario behaviour depends on the
            ``REPRO_NATIVE`` gate (recorded in the env fingerprint
            either way; this flags it for the CI matrix).
    """

    name: str
    title: str
    recipe: Callable[
        [Dict[str, int]],
        "tuple[Callable[[], object], Callable[[], Optional[str]]]",
    ]
    scales: Dict[str, Dict[str, int]]
    repeats: int = 5
    warmup: int = 1
    native_sensitive: bool = False

    def resolve_scale(self, tier: str) -> Dict[str, int]:
        """The scale knobs of *tier*."""
        try:
            return dict(self.scales[tier])
        except KeyError:
            raise KeyError(
                f"scenario {self.name!r} has no {tier!r} tier "
                f"(knows {sorted(self.scales)})"
            ) from None


_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    _ensure_builtin_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} (registered: "
            f"{', '.join(scenario_names())})"
        ) from None


def scenario_names() -> List[str]:
    _ensure_builtin_scenarios()
    return sorted(_REGISTRY)


def _ensure_builtin_scenarios() -> None:
    # The built-in recipes import the simulator/DSE stack, which itself
    # imports repro.obs — load them lazily to keep obs dependency-free.
    from repro.obs import scenarios as _scenarios  # noqa: F401

    _scenarios.ensure_registered()


# --------------------------------------------------------------------------
# environment fingerprint
# --------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _kernel_state(load: Callable[[], object]) -> str:
    """``off`` under ``REPRO_NATIVE=0``, else whether the kernel loaded."""
    from repro.core.native import native_mode

    if native_mode() == "off":
        return "off"
    return "loaded" if load() is not None else "fallback"


def env_fingerprint() -> Dict[str, object]:
    """Who measured: enough to judge whether two records are comparable.

    ``native_reducer`` / ``native_simulator`` record which implementation
    ran (``loaded``, ``fallback`` or ``off``), not just the
    ``REPRO_NATIVE`` setting.
    """
    from repro.core.native import load_native
    from repro.simulator.native import load_native_sim

    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        numpy_version = None
    return {
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_native": os.environ.get("REPRO_NATIVE", ""),
        "native_reducer": _kernel_state(load_native),
        "native_simulator": _kernel_state(load_native_sim),
        "git_sha": _git_sha(),
    }


# --------------------------------------------------------------------------
# running a scenario
# --------------------------------------------------------------------------


class ScenarioRun(RuntimeError):
    """Raised when a scenario violates the measurement protocol."""


def run_scenario(
    scenario: Scenario,
    tier: str = "full",
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchRecord:
    """Measure *scenario* under the protocol and return its record.

    Setup (the recipe call) is untimed.  Each rep — warmup and timed
    alike — runs the body under a fresh enabled :class:`Observer`, so
    rep N's spans never contaminate rep N+1's.  Digests must agree
    across all reps or :class:`ScenarioRun` is raised.
    """
    repeats = scenario.repeats if repeats is None else repeats
    warmup = scenario.warmup if warmup is None else warmup
    if repeats < 1:
        raise ScenarioRun("repeats must be >= 1")
    scale = scenario.resolve_scale(tier)
    say = progress or (lambda message: None)

    say(f"{scenario.name}: setup (scale {scale})")
    body, digest_fn = scenario.recipe(scale)

    samples: List[float] = []
    digests: List[Optional[str]] = []
    best_stages: Dict[str, float] = {}
    best_counters: Dict[str, float] = {}
    best_aux: Dict[str, float] = {}

    total_reps = warmup + repeats
    for rep in range(total_reps):
        timed = rep >= warmup
        observer = Observer(enabled=True)
        with use_observer(observer):
            elapsed = measure(body)
            digest = digest_fn()
        label = "timed" if timed else "warmup"
        say(
            f"{scenario.name}: rep {rep + 1}/{total_reps} "
            f"({label}) {elapsed:.4f}s"
        )
        if not timed:
            continue
        digests.append(digest)
        samples.append(elapsed)
        if elapsed == min(samples):
            best_stages = observer.tracer.totals_by_name()
            snapshot = observer.metrics.snapshot()
            best_counters = dict(snapshot.get("counters", {}))
            best_aux = _derive_aux(scale, elapsed, best_counters)

    unique_digests = {d for d in digests if d is not None}
    if len(unique_digests) > 1:
        raise ScenarioRun(
            f"scenario {scenario.name!r} produced {len(unique_digests)} "
            f"distinct result digests across reps — it is not measuring "
            f"a deterministic workload"
        )

    return BenchRecord(
        scenario=scenario.name,
        tier=tier,
        created=clock.wall_iso(),
        scale=scale,
        repeats=repeats,
        warmup=warmup,
        samples=samples,
        stages=best_stages,
        counters=best_counters,
        aux=best_aux,
        digest=next(iter(unique_digests)) if unique_digests else None,
        env=env_fingerprint(),
        schema_version=SCHEMA_VERSION,
    )


def _derive_aux(
    scale: Dict[str, int],
    best_seconds: float,
    counters: Dict[str, float],
) -> Dict[str, float]:
    """Scenario-agnostic throughput numbers worth keeping."""
    aux: Dict[str, float] = {}
    if best_seconds > 0:
        uops = counters.get("sim.uops_retired", 0.0)
        if uops:
            aux["uops_per_second"] = uops / best_seconds
        points = counters.get("sweep.points", 0.0)
        if points:
            aux["points_per_second"] = points / best_seconds
        macros = scale.get("macros")
        if macros:
            aux["macros_per_second"] = macros / best_seconds
        requests = counters.get("serve.client_requests", 0.0)
        if requests:
            aux["requests_per_second"] = requests / best_seconds
    return aux
