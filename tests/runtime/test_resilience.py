"""Unit tests for the retry policy of the suite runner: a count of
extra attempts, validated on entry, and a fixed backoff schedule."""

import pytest

from repro.runtime.runner import backoff_delay, parallel_map, run_suite


def square(value):
    return value * value


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            parallel_map(square, [(1,)], retries=-1)
        with pytest.raises(ValueError, match="retries"):
            run_suite(names=("gamess",), macros=50, retries=-1)

    def test_delays_are_deterministic_and_grow(self):
        delays = [backoff_delay(n) for n in range(1, 9)]
        assert delays == [backoff_delay(n) for n in range(1, 9)]
        assert delays == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        )

    def test_max_delay_caps_the_raw_backoff(self):
        assert backoff_delay(7) == backoff_delay(60) == 2.0
