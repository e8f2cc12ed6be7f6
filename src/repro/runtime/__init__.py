"""Execution runtime: artifact caching and parallel suite analysis.

The subsystem that turns the repository from a run-everything-from-
scratch library into an amortising toolchain (ROADMAP: "fast as the
hardware allows"):

* :mod:`repro.runtime.fingerprint` — content-addressed keys over every
  input that determines an analysis result;
* :mod:`repro.runtime.cache` — a checksummed on-disk store of traces
  and RpStacks models keyed by those fingerprints; a hit rebuilds the
  dependence graph from the trace, which is faster than reading an
  archived graph back;
* :mod:`repro.runtime.runner` — fan-out of ``analyze()`` over the
  workload suite on worker processes, one pipe each, with error
  isolation, a retry count with fixed backoff and per-task deadlines.
  An interrupted suite continues by running again on the same cache,
  where every finished workload is a hit.
"""

from repro.runtime.cache import ArtifactCache, CacheStats, open_cache
from repro.runtime.fingerprint import (
    analysis_fingerprint,
    code_version,
    workload_fingerprint,
)
from repro.runtime.runner import (
    EXIT_ALL_FAILED,
    EXIT_OK,
    EXIT_PARTIAL_FAILURE,
    SuiteReport,
    TaskOutcome,
    WorkloadOutcome,
    parallel_map,
    run_suite,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "EXIT_ALL_FAILED",
    "EXIT_OK",
    "EXIT_PARTIAL_FAILURE",
    "SuiteReport",
    "TaskOutcome",
    "WorkloadOutcome",
    "parallel_map",
    "analysis_fingerprint",
    "code_version",
    "open_cache",
    "run_suite",
    "workload_fingerprint",
]
