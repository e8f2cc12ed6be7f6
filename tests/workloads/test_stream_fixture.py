"""Pinned µop streams of every generated workload.

Every stream the library generates — the 12 suite analogues at several
lengths and two seeds, the interleaved-phase analogues at lengths that
cut their phase pattern mid-block, and every hand-written kernel — is
pinned by the SHA-256 of its columns' canonical bytes and by its
workload fingerprint (name, provenance params and stream).  A change to
how streams are generated or stored cannot shift a single µop, address
or branch outcome unnoticed.

The prefix property is checked separately: ``generate`` draws all of
its per-spec state before the macro-op loop, so the stream of
``(spec, seed)`` at *m* macro-ops is the first *m* macro-ops of the
stream at any longer length.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -c "
    import json
    from tests.workloads.test_stream_fixture import FIXTURE, cases, digests
    data = {name: digests(make()) for name, make in cases()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + '\\n')
    "
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.uop import OpClass
from repro.runtime.fingerprint import workload_fingerprint
from repro.workloads import kernels
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.suite import make_workload, suite_names

FIXTURE = pathlib.Path(__file__).parents[1] / "data" / "workload_streams.json"

#: Suite lengths in macro-ops; 97, 150 and 1,000 are not multiples of
#: the phased analogues' 96 + 48 pattern.
SIZES = (1, 5, 97, 150, 1000)
SEEDS = (1, 2)
#: Phased analogues, also pinned at a long length ending mid-block.
PHASED = ("gamess", "leslie3d")
LONG = 2500

KERNELS = {
    **kernels.STRESS_KERNELS,
    "serial_chain": kernels.serial_chain,
    "serial_chain_int_div": lambda: kernels.serial_chain(
        OpClass.INT_DIV, 64
    ),
    "independent_stream": kernels.independent_stream,
    "pointer_ring": kernels.pointer_ring,
    "stream_triad": kernels.stream_triad,
    "daxpy": kernels.daxpy,
    "blocked_gemm": kernels.blocked_gemm,
    "reduction_tree": kernels.reduction_tree,
}


def cases():
    """(case name, zero-argument workload builder) for every pin."""
    out = []
    for seed in SEEDS:
        for name in suite_names():
            for macros in SIZES:
                out.append(
                    (
                        f"{name}.{macros}.s{seed}",
                        lambda n=name, m=macros, s=seed: make_workload(
                            n, m, seed=s
                        ),
                    )
                )
        for name in PHASED:
            out.append(
                (
                    f"{name}.{LONG}.s{seed}",
                    lambda n=name, s=seed: make_workload(n, LONG, seed=s),
                )
            )
    out += [(f"kernel.{name}", make) for name, make in sorted(KERNELS.items())]
    return out


def digests(workload) -> dict:
    """The pinned identity of one workload, JSON-ready."""
    columns = workload.columns
    return {
        "columns_sha256": hashlib.sha256(
            columns.canonical_bytes()
        ).hexdigest(),
        "fingerprint": workload_fingerprint(workload),
        "uops": len(workload),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(name for name, _make in cases())


@pytest.mark.parametrize(
    "name,make", cases(), ids=[name for name, _make in cases()]
)
def test_stream_matches_fixture(pinned, name, make):
    assert digests(make()) == pinned[name]


specs = st.builds(
    WorkloadSpec,
    name=st.just("prefix"),
    num_macro_ops=st.integers(min_value=1, max_value=120),
    p_load=st.floats(min_value=0.0, max_value=0.3),
    p_store=st.floats(min_value=0.0, max_value=0.15),
    p_fp_add=st.floats(min_value=0.0, max_value=0.15),
    p_int_div=st.floats(min_value=0.0, max_value=0.05),
    p_branch=st.floats(min_value=0.0, max_value=0.25),
    p_fused_load_op=st.floats(min_value=0.0, max_value=1.0),
    pointer_chase_fraction=st.floats(min_value=0.0, max_value=1.0),
    hard_branch_fraction=st.floats(min_value=0.0, max_value=0.5),
    alternating_branch_fraction=st.floats(min_value=0.0, max_value=0.5),
    working_set_bytes=st.sampled_from([64, 4096, 262144]),
    code_footprint_bytes=st.sampled_from([64, 256, 8192]),
)


@settings(max_examples=40, deadline=None)
@given(
    spec=specs,
    extra=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generate_prefix_property(spec, extra, seed):
    """The stream at m macro-ops is the first m macro-ops of any
    longer stream of the same (spec, seed)."""
    short = generate(spec, seed=seed)
    long = generate(spec.resized(spec.num_macro_ops + extra), seed=seed)
    prefix = long.slice(0, len(short))
    assert len(prefix) == len(short)
    assert prefix.num_macro_ops == short.num_macro_ops
    assert prefix.columns.canonical_bytes() == short.columns.canonical_bytes()
