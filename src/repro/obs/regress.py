"""Noise-aware regression gates over the perf-trajectory store.

A CI box is a noisy instrument: single samples jitter by tens of
percent, so a naive "slower than last time" gate cries wolf until it is
ignored.  The gates here are deliberately conservative — a regression
must clear **all three** defences before the build fails:

1. **min-of-N**: both sides compare their *fastest* sample, which is
   the statistic least contaminated by scheduler/GC noise;
2. **relative threshold**: the minimum must have moved by more than
   ``rel_threshold`` (default 50% — shared boxes show sustained
   contention windows where even min-of-N lands 40% high);
3. **absolute floor**: the move must also exceed ``abs_floor_seconds``
   (default 50 ms) — a 60% swing on a 3 ms scenario is noise, not news.

The wide total band does not blunt detection: the per-stage gates run
regardless of the total, and a genuine 2x slowdown in any one stage is
a +100% stage move that clears them on its own.

Span-level attribution runs the same gate per pipeline stage (with its
own, tighter floors): when a scenario regresses — or when one stage
silently doubles inside an unchanged total — the finding names the
stage, not just the number.  Counter deltas (e.g. a reintroduced
``trace.materializations``) are reported alongside.

Records are only comparable like-for-like: same scenario, tier and
scale.  Result digests are compared first, on any host: a digest drift
is ``DIGEST_MISMATCH`` under both policies whenever both records carry
a digest and their ``numpy`` and ``platform`` match.  Neither the CPU
count, the Python version, ``REPRO_NATIVE`` nor which native kernels
loaded can change a result (the spec-vs-compiled parity suites enforce
the last two), so a digest gate needs only the baseline's numpy.

Timings are another matter.  Environment drift (different
python/numpy/CPU count/``REPRO_NATIVE``/platform) is reported on every
finding; under the default ``warn`` policy the timing gates still run,
under ``strict`` a mismatch downgrades the verdict to ``ENV_MISMATCH``
so cross-machine timings never fail a build.  A native kernel that
loaded on one side only (``native_reducer`` / ``native_simulator``) is
an environment break for timings under both policies: the two runs
measured different implementations.  A record that predates those
fields leaves them unknown and keeps gating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.obs.schema import BenchRecord

__all__ = ["Verdict", "GatePolicy", "Finding", "compare_records"]


class Verdict(str, Enum):
    """Outcome of comparing one run against its baseline."""

    OK = "ok"
    REGRESSION = "regression"
    IMPROVEMENT = "improvement"
    MISSING_BASELINE = "missing-baseline"
    ENV_MISMATCH = "env-mismatch"
    SCALE_MISMATCH = "scale-mismatch"
    DIGEST_MISMATCH = "digest-mismatch"


@dataclass(frozen=True)
class GatePolicy:
    """Thresholds the noise gates apply (see module docstring)."""

    #: total must slow down by more than this fraction ...
    rel_threshold: float = 0.50
    #: ... and by more than this many seconds.
    abs_floor_seconds: float = 0.05
    #: per-stage slowdown fraction (stages are noisier than totals).
    stage_rel_threshold: float = 0.60
    #: per-stage absolute floor, seconds.
    stage_abs_floor_seconds: float = 0.02
    #: env fields compared for drift.
    env_fields: tuple = (
        "python",
        "numpy",
        "cpu_count",
        "repro_native",
        "platform",
    )
    #: "warn" gates despite env drift; "strict" skips (ENV_MISMATCH).
    env_policy: str = "warn"
    #: fail on result-digest drift (parity break) when both sides have
    #: digests and the same numpy and platform, whatever the other env
    #: fields say.
    check_digest: bool = True

    @classmethod
    def for_tier(cls, tier: str, **overrides) -> "GatePolicy":
        """Tier-appropriate defaults: the ``ci`` tier runs reduced-scale
        scenarios, so it keeps the same relative band but much lower
        absolute floors (a 10 ms move on a 40 ms scenario is a real
        regression there) and a wider per-stage band."""
        if tier == "ci":
            defaults = dict(
                abs_floor_seconds=0.010,
                stage_rel_threshold=0.80,
                stage_abs_floor_seconds=0.008,
            )
        else:
            defaults = dict()
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class StageDelta:
    """One stage's movement between baseline and current run."""

    stage: str
    baseline_seconds: float
    current_seconds: float

    @property
    def delta_seconds(self) -> float:
        return self.current_seconds - self.baseline_seconds

    @property
    def ratio(self) -> float:
        if self.baseline_seconds <= 0:
            return float("inf") if self.current_seconds > 0 else 1.0
        return self.current_seconds / self.baseline_seconds

    def describe(self) -> str:
        return (
            f"{self.stage}: {self.baseline_seconds:.4f}s -> "
            f"{self.current_seconds:.4f}s ({self.ratio:.2f}x)"
        )


@dataclass
class Finding:
    """The comparison result for one scenario."""

    scenario: str
    verdict: Verdict
    baseline_seconds: float = 0.0
    current_seconds: float = 0.0
    #: stages that independently cleared the stage gates, worst first.
    regressed_stages: List[StageDelta] = field(default_factory=list)
    #: env fields that differ: name -> (baseline value, current value).
    env_drift: Dict[str, tuple] = field(default_factory=dict)
    #: counters that moved notably: name -> (baseline, current).
    counter_drift: Dict[str, tuple] = field(default_factory=dict)
    detail: str = ""

    @property
    def failed(self) -> bool:
        """Should this finding fail a gated build?"""
        return self.verdict in (
            Verdict.REGRESSION,
            Verdict.DIGEST_MISMATCH,
        )

    @property
    def delta_pct(self) -> float:
        if self.baseline_seconds <= 0:
            return 0.0
        return (
            (self.current_seconds - self.baseline_seconds)
            / self.baseline_seconds
            * 100.0
        )

    @property
    def attributed_stage(self) -> Optional[str]:
        """The stage name a regression is pinned on (largest absolute
        slowdown among the gated stages), or ``None``."""
        if not self.regressed_stages:
            return None
        return self.regressed_stages[0].stage

    def describe(self) -> str:
        head = f"{self.scenario}: {self.verdict.value}"
        if self.verdict in (Verdict.REGRESSION, Verdict.IMPROVEMENT,
                            Verdict.OK):
            head += (
                f" ({self.baseline_seconds:.4f}s -> "
                f"{self.current_seconds:.4f}s, {self.delta_pct:+.1f}%)"
            )
        parts = [head]
        if self.regressed_stages:
            parts.append(
                "  stage attribution: "
                + "; ".join(d.describe() for d in self.regressed_stages)
            )
        if self.counter_drift:
            parts.append(
                "  counters moved: "
                + ", ".join(
                    f"{name} {int(old)} -> {int(new)}"
                    for name, (old, new) in sorted(
                        self.counter_drift.items()
                    )
                )
            )
        if self.env_drift:
            parts.append(
                "  env drift: "
                + ", ".join(
                    f"{name} {old!r} -> {new!r}"
                    for name, (old, new) in sorted(self.env_drift.items())
                )
            )
        if self.detail:
            parts.append(f"  {self.detail}")
        return "\n".join(parts)


def _env_drift(
    baseline: BenchRecord, current: BenchRecord, policy: GatePolicy
) -> Dict[str, tuple]:
    drift = {}
    for name in policy.env_fields:
        old = baseline.env.get(name)
        new = current.env.get(name)
        if old != new:
            drift[name] = (old, new)
    return drift


#: env fields whose drift is always ENV_MISMATCH for timings: which
#: native kernels loaded.  A field absent from either record is unknown.
_KERNEL_FIELDS = ("native_reducer", "native_simulator")

#: env fields that must match before result digests are comparable.
_DIGEST_ENV_FIELDS = ("numpy", "platform")


def _kernel_drift(
    baseline: BenchRecord, current: BenchRecord
) -> Dict[str, tuple]:
    drift = {}
    for name in _KERNEL_FIELDS:
        old = baseline.env.get(name)
        new = current.env.get(name)
        if old is not None and new is not None and old != new:
            drift[name] = (old, new)
    return drift


def _slower(
    baseline: float, current: float, rel: float, floor: float
) -> bool:
    """The three-defence gate: min-of-N inputs, relative + absolute."""
    return (
        current > baseline * (1.0 + rel)
        and (current - baseline) > floor
    )


def _stage_deltas(
    baseline: BenchRecord, current: BenchRecord, policy: GatePolicy
) -> List[StageDelta]:
    """Stages that independently clear the (tighter) stage gates,
    sorted by absolute slowdown so ``[0]`` is the named culprit."""
    deltas = []
    for stage, current_seconds in current.stages.items():
        baseline_seconds = baseline.stages.get(stage)
        if baseline_seconds is None:
            continue
        if _slower(
            baseline_seconds,
            current_seconds,
            policy.stage_rel_threshold,
            policy.stage_abs_floor_seconds,
        ):
            deltas.append(
                StageDelta(stage, baseline_seconds, current_seconds)
            )
    deltas.sort(key=lambda d: d.delta_seconds, reverse=True)
    return deltas


def _counter_drift(
    baseline: BenchRecord, current: BenchRecord
) -> Dict[str, tuple]:
    drift = {}
    for name, new in current.counters.items():
        old = baseline.counters.get(name, 0.0)
        if new != old:
            drift[name] = (old, new)
    for name, old in baseline.counters.items():
        if name not in current.counters and old != 0.0:
            drift[name] = (old, 0.0)
    return drift


def compare_records(
    current: BenchRecord,
    baseline: Optional[BenchRecord],
    policy: Optional[GatePolicy] = None,
) -> Finding:
    """Gate *current* against *baseline*; see the module docstring.

    Returns a :class:`Finding` whose :attr:`Finding.failed` says
    whether a gated build should fail.  Never raises on mismatched
    inputs — incomparability is itself a verdict.
    """
    policy = policy or GatePolicy()
    if baseline is None:
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.MISSING_BASELINE,
            current_seconds=current.min_seconds,
            detail=(
                "no committed baseline for this tier; run "
                "`repro bench run --update-baseline` and commit the "
                "BENCH file"
            ),
        )
    if baseline.scenario != current.scenario:
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.SCALE_MISMATCH,
            detail=(
                f"baseline is for scenario {baseline.scenario!r}"
            ),
        )
    if baseline.tier != current.tier or baseline.scale != current.scale:
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.SCALE_MISMATCH,
            baseline_seconds=baseline.min_seconds,
            current_seconds=current.min_seconds,
            detail=(
                f"incomparable runs: baseline tier={baseline.tier} "
                f"scale={baseline.scale}, current tier={current.tier} "
                f"scale={current.scale}"
            ),
        )

    env_drift = _env_drift(baseline, current, policy)
    kernel_drift = _kernel_drift(baseline, current)

    # Parity before performance: digest drift means the scenario now
    # computes something different, which no timing can excuse and no
    # host, interpreter or kernel choice explains.
    if (
        policy.check_digest
        and baseline.digest
        and current.digest
        and baseline.digest != current.digest
        and all(
            baseline.env.get(name) == current.env.get(name)
            for name in _DIGEST_ENV_FIELDS
        )
    ):
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.DIGEST_MISMATCH,
            baseline_seconds=baseline.min_seconds,
            current_seconds=current.min_seconds,
            env_drift={**env_drift, **kernel_drift},
            detail=(
                f"result digest drifted: {baseline.digest[:16]}... -> "
                f"{current.digest[:16]}..."
            ),
        )

    if kernel_drift or (env_drift and policy.env_policy == "strict"):
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.ENV_MISMATCH,
            baseline_seconds=baseline.min_seconds,
            current_seconds=current.min_seconds,
            env_drift={**env_drift, **kernel_drift},
            detail=(
                "a native kernel loaded on one side only; timings not "
                "compared"
                if kernel_drift
                else "environment drifted; timings not compared (strict)"
            ),
        )

    stage_deltas = _stage_deltas(baseline, current, policy)
    counter_drift = _counter_drift(baseline, current)
    base_min = baseline.min_seconds
    cur_min = current.min_seconds

    if _slower(
        base_min, cur_min, policy.rel_threshold, policy.abs_floor_seconds
    ) or stage_deltas:
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.REGRESSION,
            baseline_seconds=base_min,
            current_seconds=cur_min,
            regressed_stages=stage_deltas,
            env_drift=env_drift,
            counter_drift=counter_drift,
            detail=(
                f"attributed to stage "
                f"{stage_deltas[0].stage!r}" if stage_deltas
                else "total moved; no single stage cleared its gate"
            ),
        )
    if _slower(
        cur_min, base_min, policy.rel_threshold, policy.abs_floor_seconds
    ):
        return Finding(
            scenario=current.scenario,
            verdict=Verdict.IMPROVEMENT,
            baseline_seconds=base_min,
            current_seconds=cur_min,
            env_drift=env_drift,
            counter_drift=counter_drift,
            detail=(
                "faster than baseline; refresh it intentionally with "
                "`repro bench run --update-baseline` to lock the gain in"
            ),
        )
    return Finding(
        scenario=current.scenario,
        verdict=Verdict.OK,
        baseline_seconds=base_min,
        current_seconds=cur_min,
        env_drift=env_drift,
        counter_drift=counter_drift,
    )
