"""The compiled reducer and walk, built warning-free under the
undefined-behaviour sanitizer.

The reducer's pair lists index per-row scratch by counts it derives
from its input, and its merge skip does arithmetic on support
popcounts: an out-of-range shift, a signed overflow or a misaligned
scratch array is undefined behaviour that the optimised build may
silently miscompile.  Here the kernel source is built with every
warning an error and ``-fsanitize=undefined -fno-sanitize-recover=all``
(a finding ends the process; run pytest with ``-s`` to see the
sanitizer's report), then checked against the spec reducer
and the spec walk like the production build.  The test skips only when
this toolchain cannot build and load a trivial sanitized library; a
warning in the kernel fails it.
"""

import ctypes
import subprocess

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.core import generator
from repro.core.native import (
    _C_SOURCE,
    _CFLAGS,
    NativeWalk,
    compile_shared_library,
)
from repro.graphmodel.builder import build_graph
from repro.simulator.core import simulate
from repro.workloads.suite import make_workload
from tests.core import test_segment_parallel as parity

SANITIZE = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
STRICT = ["-Wall", "-Wextra", "-Werror"]

#: Suite graphs (at 300 macro-ops) the sanitized walk runs over.
WALK_GRAPHS = ("gamess", "leslie3d", "mcf", "omnetpp")


@pytest.fixture(scope="module")
def sanitized():
    try:
        ctypes.CDLL(
            compile_shared_library(
                "ubsan_probe",
                "int repro_probe(void) { return 0; }\n",
                _CFLAGS + SANITIZE,
            )
        )
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(
            "this toolchain cannot build and load -fsanitize=undefined "
            f"({exc.__class__.__name__})"
        )
    try:
        path = compile_shared_library(
            "reduction_ubsan", _C_SOURCE, _CFLAGS + STRICT + SANITIZE
        )
    except subprocess.CalledProcessError as exc:
        pytest.fail(f"kernel build failed:\n{exc.stderr.decode()}")
    return NativeWalk(ctypes.CDLL(path))


@pytest.mark.parametrize(
    "population,seed,count",
    [
        (parity._random_block_population, 7, 150),
        (parity._tied_binary_population, 11, 150),
        (parity._support_bound_population, 13, 200),
    ],
    ids=["random_blocks", "tied_binary", "support_bound"],
)
def test_sanitized_reducer_matches_spec(sanitized, population, seed, count):
    rng = np.random.default_rng(seed)
    parity._assert_native_matches_spec(
        sanitized, (population(rng) for _ in range(count))
    )


def test_sanitized_reducer_carries_merge_bits(sanitized):
    parity._assert_carried_bits_match_spec(
        sanitized, np.random.default_rng(17), 300
    )


@pytest.mark.parametrize("name", WALK_GRAPHS)
def test_sanitized_walk_matches_spec_walk(monkeypatch, sanitized, name):
    graph = build_graph(
        simulate(make_workload(name, 300), baseline_config())
    )
    outcomes = parity.TestCompiledWalkMatchesSpecWalk._outcomes
    monkeypatch.setattr(generator, "load_native", lambda: sanitized)
    compiled = outcomes(graph, parity.SEGMENT_LENGTH)
    monkeypatch.setattr(generator, "load_native", lambda: None)
    assert outcomes(graph, parity.SEGMENT_LENGTH) == compiled
