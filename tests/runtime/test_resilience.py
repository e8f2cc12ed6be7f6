"""Unit and property tests for the resilience policy layer: retry
backoff (deterministic, provably bounded), suite-journal round-trips and
stale-resume rejection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.resilience import (
    CheckpointError,
    CheckpointMismatchError,
    RetryPolicy,
    SuiteCheckpoint,
    suite_fingerprint,
)


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.should_retry(ValueError("x"), 1)
        assert policy.should_retry(ValueError("x"), 2)
        assert not policy.should_retry(ValueError("x"), 3)

    def test_non_retryable_errors_fail_immediately(self):
        policy = RetryPolicy(retryable=(OSError,))
        assert policy.should_retry(OSError("io"), 1)
        assert not policy.should_retry(ValueError("logic"), 1)
        # KeyboardInterrupt is a BaseException, never in (Exception,).
        assert not RetryPolicy().should_retry(KeyboardInterrupt(), 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-0.1)
        with pytest.raises(ValueError, match="jitter_fraction"):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay_for(0)

    def test_delays_are_deterministic_and_grow(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, backoff_factor=2.0,
            max_delay=10.0, jitter_fraction=0.0,
        )
        delays = [policy.delay_for(a, task_key="t") for a in range(1, 5)]
        assert delays == [
            policy.delay_for(a, task_key="t") for a in range(1, 5)
        ]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert delays[3] == pytest.approx(0.8)

    def test_jitter_varies_by_task_and_attempt_not_by_call(self):
        policy = RetryPolicy(jitter_fraction=0.5, seed=7)
        a = policy.delay_for(1, task_key="alpha")
        b = policy.delay_for(1, task_key="beta")
        assert a == policy.delay_for(1, task_key="alpha")
        assert a != b  # sha256 collision would be astonishing

    def test_max_delay_caps_the_raw_backoff(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, backoff_factor=10.0,
            max_delay=2.0, jitter_fraction=0.0,
        )
        assert policy.delay_for(9, task_key=0) == pytest.approx(2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        max_attempts=st.integers(min_value=1, max_value=8),
        base_delay=st.floats(
            min_value=0.0, max_value=5.0, allow_nan=False
        ),
        backoff_factor=st.floats(
            min_value=1.0, max_value=4.0, allow_nan=False
        ),
        max_delay=st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False
        ),
        jitter_fraction=st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        seed=st.integers(min_value=0, max_value=2**32),
        task_key=st.one_of(st.integers(), st.text(max_size=20)),
    )
    def test_total_backoff_never_exceeds_documented_cap(
        self, max_attempts, base_delay, backoff_factor, max_delay,
        jitter_fraction, seed, task_key,
    ):
        """The property the docs promise: however unlucky the jitter,
        one task's accumulated backoff stays within total_delay_cap()."""
        policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay=base_delay,
            backoff_factor=backoff_factor,
            max_delay=max_delay,
            jitter_fraction=jitter_fraction,
            seed=seed,
        )
        total = sum(
            policy.delay_for(attempt, task_key=task_key)
            for attempt in range(1, policy.max_attempts)
        )
        cap = policy.total_delay_cap()
        assert total <= cap * (1 + 1e-12) + 1e-12


class TestFingerprints:
    def test_suite_fingerprint_tracks_inputs(self):
        base = suite_fingerprint(["a", "b"], 100, 1, None, {})
        assert base == suite_fingerprint(["a", "b"], 100, 1, None, {})
        assert base != suite_fingerprint(["a"], 100, 1, None, {})
        assert base != suite_fingerprint(["a", "b"], 200, 1, None, {})
        assert base != suite_fingerprint(["a", "b"], 100, 2, None, {})
        assert base != suite_fingerprint(
            ["a", "b"], 100, 1, None, {"warm_caches": False}
        )


class TestSuiteCheckpoint:
    def test_roundtrip_and_mark(self, tmp_path):
        path = tmp_path / "suite.json"
        journal = SuiteCheckpoint(fingerprint="fp")
        journal.save(path)
        journal.mark("gcc", path)
        journal.mark("mcf", path)
        journal.mark("gcc", path)  # idempotent
        loaded = SuiteCheckpoint.load(path)
        assert loaded.fingerprint == "fp"
        assert loaded.completed == ["gcc", "mcf"]
        assert loaded.created

    def test_validate_rejects_other_configuration(self, tmp_path):
        journal = SuiteCheckpoint(fingerprint="fp")
        journal.validate("fp")
        with pytest.raises(
            CheckpointMismatchError, match="suite configuration"
        ):
            journal.validate("other")

    def test_garbage_and_wrong_kind_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            SuiteCheckpoint.load(garbage)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": 1, "kind": "sweep"}))
        with pytest.raises(CheckpointError, match="suite"):
            SuiteCheckpoint.load(wrong)
