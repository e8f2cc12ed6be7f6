"""Property-based tests of cache-key fingerprinting and serialisers.

The cache is only sound if the fingerprint is a pure function of the
analysis inputs (equal inputs -> equal keys) that separates *every*
field capable of changing the result (any perturbation -> distinct
key), and if the artifact serialisers are lossless.  Hypothesis sweeps
the input space in the style of ``tests/simulator/test_sim_properties``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import MicroarchConfig, baseline_config
from repro.common.events import LATENCY_DOMAIN, NUM_EVENTS, EventType
from repro.core.generator import generate_rpstacks
from repro.core.io import load_model, save_model
from repro.core.reduction import ReductionPolicy
from repro.graphmodel.builder import BuilderOptions, build_graph
from repro.runtime.fingerprint import (
    analysis_fingerprint,
    workload_fingerprint,
)
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.suite import make_workload

specs = st.builds(
    WorkloadSpec,
    name=st.just("fp"),
    num_macro_ops=st.integers(min_value=20, max_value=60),
    p_load=st.floats(min_value=0.0, max_value=0.3),
    p_store=st.floats(min_value=0.0, max_value=0.1),
    p_fp_add=st.floats(min_value=0.0, max_value=0.2),
    p_branch=st.floats(min_value=0.0, max_value=0.2),
    pointer_chase_fraction=st.floats(min_value=0.0, max_value=0.8),
    dep_distance_mean=st.floats(min_value=1.0, max_value=20.0),
)


@given(spec=specs, seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_equal_inputs_give_equal_keys(spec, seed):
    workload_a = generate(spec, seed=seed)
    workload_b = generate(spec, seed=seed)
    config = baseline_config()
    assert workload_fingerprint(workload_a) == workload_fingerprint(
        workload_b
    )
    assert analysis_fingerprint(workload_a, config) == analysis_fingerprint(
        workload_b, config
    )


@given(
    spec=specs,
    seed=st.integers(min_value=0, max_value=10 ** 6),
    other_seed=st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=25, deadline=None)
def test_different_seed_gives_distinct_key(spec, seed, other_seed):
    if seed == other_seed:
        return
    workload_a = generate(spec, seed=seed)
    workload_b = generate(spec, seed=other_seed)
    # Distinct seeds virtually always produce distinct streams; when the
    # streams genuinely coincide, sharing a key is the *correct*
    # content-addressed behaviour.
    if workload_a.uops != workload_b.uops:
        assert workload_fingerprint(workload_a) != workload_fingerprint(
            workload_b
        )


@pytest.fixture(scope="module")
def fp_workload():
    return make_workload("gamess", 40)


@given(
    event=st.sampled_from(sorted(LATENCY_DOMAIN, key=int)),
    delta=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=30, deadline=None)
def test_one_latency_perturbation_changes_key(fp_workload, event, delta):
    base = baseline_config()
    perturbed = base.with_latency_overrides(
        {event: base.latency[event] + delta}
    )
    assert analysis_fingerprint(fp_workload, base) != analysis_fingerprint(
        fp_workload, perturbed
    )


@given(
    field_name=st.sampled_from(
        sorted(ReductionPolicy.__dataclass_fields__)
    ),
)
@settings(max_examples=20, deadline=None)
def test_any_policy_knob_changes_key(fp_workload, field_name):
    config = baseline_config()
    base_policy = ReductionPolicy()
    value = getattr(base_policy, field_name)
    if isinstance(value, bool):
        perturbed = dataclasses.replace(base_policy, **{field_name: not value})
    elif isinstance(value, float):
        perturbed = dataclasses.replace(
            base_policy, **{field_name: value / 2}
        )
    else:
        perturbed = dataclasses.replace(
            base_policy, **{field_name: value + 1}
        )
    assert analysis_fingerprint(
        fp_workload, config, policy=base_policy
    ) != analysis_fingerprint(fp_workload, config, policy=perturbed)


@given(
    field_name=st.sampled_from(
        sorted(BuilderOptions.__dataclass_fields__)
    ),
)
@settings(max_examples=14, deadline=None)
def test_any_builder_option_changes_key(fp_workload, field_name):
    config = baseline_config()
    base_options = BuilderOptions()
    flipped = dataclasses.replace(
        base_options, **{field_name: not getattr(base_options, field_name)}
    )
    assert analysis_fingerprint(
        fp_workload, config, builder_options=base_options
    ) != analysis_fingerprint(
        fp_workload, config, builder_options=flipped
    )


def test_segment_length_and_warm_caches_change_key(fp_workload):
    config = baseline_config()
    base = analysis_fingerprint(fp_workload, config)
    assert base != analysis_fingerprint(
        fp_workload, config, segment_length=128
    )
    assert base != analysis_fingerprint(
        fp_workload, config, warm_caches=False
    )


def test_structure_domain_changes_key(fp_workload):
    base = baseline_config()
    smaller_rob = dataclasses.replace(
        base, core=dataclasses.replace(base.core, rob_size=64)
    )
    prefetching = dataclasses.replace(base, prefetcher="stride")
    assert analysis_fingerprint(fp_workload, base) != analysis_fingerprint(
        fp_workload, smaller_rob
    )
    assert analysis_fingerprint(fp_workload, base) != analysis_fingerprint(
        fp_workload, prefetching
    )


# ---- lossless round trips ------------------------------------------------


@given(
    spec=specs,
    seed=st.integers(min_value=0, max_value=10 ** 4),
    segment_length=st.sampled_from([16, 64, 256]),
)
@settings(max_examples=10, deadline=None)
def test_model_roundtrip_is_lossless(
    tmp_path_factory, spec, seed, segment_length
):
    from repro.simulator.core import simulate

    workload = generate(spec, seed=seed)
    config = baseline_config()
    result = simulate(workload, config)
    graph = build_graph(result)
    model = generate_rpstacks(
        graph, config.latency, segment_length=segment_length
    )
    path = tmp_path_factory.mktemp("models") / "m.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.num_uops == model.num_uops
    assert loaded.num_segments == model.num_segments
    assert loaded.baseline == model.baseline
    for mine, theirs in zip(model.segment_stacks, loaded.segment_stacks):
        assert (mine == theirs).all()
    assert loaded.stats.nodes_visited == model.stats.nodes_visited
    assert loaded.stats.candidate_stacks == model.stats.candidate_stacks
    assert loaded.stats.reductions == model.stats.reductions
    probe = config.latency.with_overrides({EventType.L1D: 9})
    assert loaded.predict_cycles(probe) == model.predict_cycles(probe)
