"""The noise-aware regression gates, exercised on synthetic series."""

import pytest

from repro.obs.regress import (
    Finding,
    GatePolicy,
    Verdict,
    compare_records,
)
from repro.obs.schema import BenchRecord

ENV = {
    "python": "3.12.0",
    "numpy": "1.26.0",
    "cpu_count": 8,
    "repro_native": "",
    "platform": "linux",
}


def record(samples, stages=None, counters=None, env=None, **overrides):
    base = dict(
        scenario="analyze_cold",
        tier="full",
        created="2026-08-09T00:00:00+00:00",
        scale={"macros": 600},
        repeats=len(samples),
        warmup=1,
        samples=list(samples),
        stages=dict(stages or {}),
        counters=dict(counters or {}),
        env=dict(env or ENV),
    )
    base.update(overrides)
    return BenchRecord(**base)


# ---------------------------------------------------------------------------
# the three-defence total gate
# ---------------------------------------------------------------------------


def test_true_regression_is_detected():
    baseline = record([0.50, 0.52, 0.55])
    current = record([0.80, 0.82, 0.90])  # +60%, +300 ms
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.REGRESSION
    assert finding.failed


def test_pure_jitter_passes_the_gates():
    """Sample noise up to the relative threshold never cries wolf —
    and min-of-N means one slow outlier sample is simply ignored."""
    baseline = record([0.50, 0.58, 0.55])
    current = record([0.56, 1.90, 0.61])  # min 0.56 vs 0.50: +12%
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.OK
    assert not finding.failed


def test_large_relative_but_tiny_absolute_move_is_noise():
    """The absolute floor: a 2x swing on a 3 ms scenario is not news."""
    baseline = record([0.003, 0.004])
    current = record([0.006, 0.007])
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.OK


def test_small_relative_but_large_absolute_move_is_noise():
    """The relative threshold: +100 ms on a 10 s scenario is 1%."""
    baseline = record([10.0, 10.1])
    current = record([10.1, 10.2])
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.OK


def test_improvement_is_reported_not_failed():
    baseline = record([0.80, 0.85])
    current = record([0.40, 0.42])
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.IMPROVEMENT
    assert not finding.failed
    assert "refresh" in finding.detail


def test_missing_baseline():
    finding = compare_records(record([0.5]), None)
    assert finding.verdict is Verdict.MISSING_BASELINE
    assert not finding.failed  # first run cannot fail the build
    assert "update-baseline" in finding.detail


# ---------------------------------------------------------------------------
# stage attribution
# ---------------------------------------------------------------------------


def test_injected_2x_stage_slowdown_is_attributed_by_name():
    """The acceptance scenario: double ONE stage; the finding must name
    it — even when other stages wobble a little."""
    base_stages = {
        "sim.run": 0.10,
        "graph.build": 0.05,
        "stacks.generate": 0.30,
        "cache.load": 0.02,
    }
    slow_stages = dict(base_stages, **{"graph.build": 0.10})  # 2x
    slow_stages["sim.run"] = 0.11  # jitter, below the stage gate
    baseline = record([0.50, 0.52], stages=base_stages)
    current = record(
        [0.56, 0.58], stages=slow_stages
    )  # total +12%: under the total gate
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.REGRESSION
    assert finding.attributed_stage == "graph.build"
    assert "graph.build" in finding.detail
    assert "graph.build" in finding.describe()


@pytest.mark.parametrize(
    "stage",
    ["sim.run", "graph.build", "stacks.generate", "cache.load"],
)
def test_any_single_stage_doubling_is_caught(stage):
    base_stages = {
        "sim.run": 0.10,
        "graph.build": 0.05,
        "stacks.generate": 0.30,
        "cache.load": 0.03,
    }
    slow = dict(base_stages)
    slow[stage] = base_stages[stage] * 2.0
    baseline = record([0.50], stages=base_stages)
    current = record(
        [0.50 + base_stages[stage]], stages=slow
    )
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.REGRESSION
    assert finding.attributed_stage == stage


def test_worst_stage_named_first():
    baseline = record(
        [0.50], stages={"a": 0.10, "b": 0.20}
    )
    current = record(
        [0.95], stages={"a": 0.20, "b": 0.55}
    )
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.REGRESSION
    # b moved +0.35s, a moved +0.10s -> b is the culprit.
    assert finding.attributed_stage == "b"
    assert [d.stage for d in finding.regressed_stages] == ["b", "a"]


def test_stage_jitter_does_not_gate():
    baseline = record([0.50], stages={"sim.run": 0.100})
    current = record([0.52], stages={"sim.run": 0.115})
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.OK


def test_new_stage_without_baseline_entry_is_ignored():
    baseline = record([0.50], stages={"sim.run": 0.1})
    current = record(
        [0.52], stages={"sim.run": 0.1, "brand.new": 0.3}
    )
    assert compare_records(current, baseline).verdict is Verdict.OK


# ---------------------------------------------------------------------------
# comparability guards
# ---------------------------------------------------------------------------


def test_env_fingerprint_mismatch_warn_policy_still_gates():
    other_env = dict(ENV, python="3.11.9")
    baseline = record([0.50])
    current = record([0.90], env=other_env)
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.REGRESSION
    assert finding.env_drift == {"python": ("3.12.0", "3.11.9")}


def test_env_fingerprint_mismatch_strict_policy_skips():
    other_env = dict(ENV, cpu_count=2)
    baseline = record([0.50])
    current = record([0.90], env=other_env)
    policy = GatePolicy(env_policy="strict")
    finding = compare_records(current, baseline, policy)
    assert finding.verdict is Verdict.ENV_MISMATCH
    assert not finding.failed
    assert finding.env_drift == {"cpu_count": (8, 2)}


@pytest.mark.parametrize("env_policy", ["warn", "strict"])
def test_native_kernel_drift_is_an_env_break(env_policy):
    """Records with equal digests differing only in which reducer ran
    are incomparable timings under either policy: never a perf
    regression."""
    baseline = record(
        [0.50], env=dict(ENV, native_reducer="loaded"), digest="a" * 64
    )
    current = record(
        [5.00], env=dict(ENV, native_reducer="fallback"), digest="a" * 64
    )
    finding = compare_records(
        current, baseline, GatePolicy(env_policy=env_policy)
    )
    assert finding.verdict is Verdict.ENV_MISMATCH
    assert not finding.failed
    assert finding.env_drift == {
        "native_reducer": ("loaded", "fallback")
    }


@pytest.mark.parametrize("env_policy", ["warn", "strict"])
def test_native_kernel_drift_with_digest_drift_is_a_digest_break(
    env_policy,
):
    """The spec and compiled kernels must agree bit for bit, so a digest
    that moves with the kernel is a parity break, not an env change."""
    baseline = record(
        [0.50], env=dict(ENV, native_reducer="loaded"), digest="a" * 64
    )
    current = record(
        [0.50], env=dict(ENV, native_reducer="fallback"), digest="b" * 64
    )
    finding = compare_records(
        current, baseline, GatePolicy(env_policy=env_policy)
    )
    assert finding.verdict is Verdict.DIGEST_MISMATCH
    assert finding.failed
    assert finding.env_drift == {
        "native_reducer": ("loaded", "fallback")
    }


def test_baseline_without_kernel_fields_keeps_gating():
    baseline = record([0.50])
    current = record(
        [0.90],
        env=dict(ENV, native_reducer="loaded", native_simulator="loaded"),
    )
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.REGRESSION
    assert finding.env_drift == {}


def test_scale_mismatch_is_incomparable():
    baseline = record([0.50])
    current = record([0.90], scale={"macros": 1200})
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.SCALE_MISMATCH
    assert not finding.failed


def test_tier_mismatch_is_incomparable():
    baseline = record([0.50])
    current = record([0.50], tier="ci")
    assert (
        compare_records(current, baseline).verdict
        is Verdict.SCALE_MISMATCH
    )


def test_digest_drift_fails_in_matching_env():
    baseline = record([0.50], digest="a" * 64)
    current = record([0.50], digest="b" * 64)
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.DIGEST_MISMATCH
    assert finding.failed


@pytest.mark.parametrize("env_policy", ["warn", "strict"])
@pytest.mark.parametrize(
    "drift",
    [
        {"cpu_count": 1},
        {"python": "3.11.7"},
        {"repro_native": "1"},
        {"cpu_count": 1, "python": "3.11.7", "repro_native": "0"},
    ],
)
def test_digest_drift_fails_across_host_drift(env_policy, drift):
    """CPU count, interpreter and REPRO_NATIVE cannot change a result,
    so a digest drift fails the gate whatever they say."""
    baseline = record([0.50], digest="a" * 64)
    current = record(
        [0.50], digest="b" * 64, env=dict(ENV, **drift)
    )
    finding = compare_records(
        current, baseline, GatePolicy(env_policy=env_policy)
    )
    assert finding.verdict is Verdict.DIGEST_MISMATCH
    assert finding.failed
    assert set(finding.env_drift) == set(drift)


def test_digest_not_compared_across_env_drift():
    baseline = record([0.50], digest="a" * 64)
    current = record(
        [0.50], digest="b" * 64, env=dict(ENV, numpy="2.0.1")
    )
    finding = compare_records(current, baseline)
    assert finding.verdict is Verdict.OK
    assert "numpy" in finding.env_drift


def test_counter_drift_is_reported():
    baseline = record([0.50], counters={"trace.materializations": 0})
    current = record([0.50], counters={"trace.materializations": 3})
    finding = compare_records(current, baseline)
    assert finding.counter_drift == {
        "trace.materializations": (0.0, 3.0)
    }
    assert "trace.materializations" in finding.describe()


def test_ci_tier_policy_has_lower_floors():
    policy = GatePolicy.for_tier("ci")
    assert policy.abs_floor_seconds < GatePolicy().abs_floor_seconds
    baseline = record([0.040], tier="ci")
    current = record([0.080], tier="ci")  # 2x, +40 ms
    finding = compare_records(current, baseline, policy)
    assert finding.verdict is Verdict.REGRESSION


def test_finding_describe_mentions_verdict_and_delta():
    finding = Finding(
        scenario="x",
        verdict=Verdict.REGRESSION,
        baseline_seconds=1.0,
        current_seconds=2.0,
    )
    text = finding.describe()
    assert "regression" in text
    assert "+100.0%" in text
