"""Modified-cosine-similarity tests, including hypothesis properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.common.events import NUM_EVENTS
from repro.core.similarity import (
    modified_cosine,
    pairwise_modified_cosine,
    similarity_to_set,
)

vectors = hnp.arrays(
    dtype=np.float64,
    shape=NUM_EVENTS,
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def test_identical_vectors_have_unit_similarity():
    v = np.arange(NUM_EVENTS, dtype=float)
    assert modified_cosine(v, v) == pytest.approx(1.0)


def test_disjoint_support_is_orthogonal():
    a = np.zeros(NUM_EVENTS)
    b = np.zeros(NUM_EVENTS)
    a[1] = 5.0
    b[2] = 7.0
    assert modified_cosine(a, b) == pytest.approx(0.0)


def test_zero_vectors_are_identical_by_convention():
    z = np.zeros(NUM_EVENTS)
    assert modified_cosine(z, z) == 1.0


def test_zero_against_nonzero_is_orthogonal():
    z = np.zeros(NUM_EVENTS)
    v = np.ones(NUM_EVENTS)
    assert modified_cosine(z, v) == 0.0


def test_max_normalisation_balances_magnitudes():
    # Plain cosine would call these nearly parallel (dim 0 dominates);
    # the per-dimension normalisation exposes the disagreement on dim 1.
    a = np.zeros(NUM_EVENTS)
    b = np.zeros(NUM_EVENTS)
    a[0], a[1] = 1000.0, 10.0
    b[0], b[1] = 1000.0, 0.0
    plain = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    modified = modified_cosine(a, b)
    assert modified < plain
    assert modified == pytest.approx(1 / np.sqrt(2), rel=1e-6)


def test_scale_invariance_of_parallel_vectors():
    a = np.zeros(NUM_EVENTS)
    a[3], a[4] = 2.0, 6.0
    assert modified_cosine(a, 5 * a) == pytest.approx(
        modified_cosine(a, a), rel=1e-9
    )


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        modified_cosine(np.zeros(3), np.zeros(4))


@given(a=vectors, b=vectors)
@settings(max_examples=100, deadline=None)
def test_property_symmetry(a, b):
    assert modified_cosine(a, b) == pytest.approx(
        modified_cosine(b, a), abs=1e-9
    )


@given(a=vectors, b=vectors)
@settings(max_examples=100, deadline=None)
def test_property_range(a, b):
    value = modified_cosine(a, b)
    assert 0.0 <= value <= 1.0


#: Rows mixing zeros, ties and magnitudes from 1 to 1e6.
support_vectors = hnp.arrays(
    dtype=np.float64,
    shape=NUM_EVENTS,
    elements=st.one_of(
        st.just(0.0),
        st.sampled_from([1.0, 3.0, 1e6]),
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    ),
)


@given(a=support_vectors, b=support_vectors)
@settings(max_examples=300, deadline=None)
def test_property_support_cosine_bounds_similarity(a, b):
    """The modified cosine never exceeds the support cosine
    |A∩B|/√(|A||B|) over the rows' nonzero entries: every
    max-normalised component is at most 1, so Cauchy–Schwarz bounds
    it.  The compiled reducer skips a merge pair on this bound."""
    value = modified_cosine(a, b)
    in_a, in_b = a > 0, b > 0
    if not (in_a | in_b).any():
        assert value == 1.0
        return
    sizes = in_a.sum() * in_b.sum()
    bound = (in_a & in_b).sum() / math.sqrt(sizes) if sizes else 0.0
    assert value <= bound + 1e-12


@given(a=vectors)
@settings(max_examples=100, deadline=None)
def test_property_self_similarity(a)	:
    assert modified_cosine(a, a) == pytest.approx(1.0)


@given(
    stacks=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_value=1, max_value=8),
            st.just(NUM_EVENTS),
        ),
        elements=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_property_pairwise_matches_scalar(stacks):
    matrix = pairwise_modified_cosine(stacks)
    k = stacks.shape[0]
    for i in range(k):
        for j in range(k):
            assert matrix[i, j] == pytest.approx(
                modified_cosine(stacks[i], stacks[j]), abs=1e-9
            )


def test_similarity_to_set_matches_scalar():
    rng = np.random.default_rng(0)
    kept = rng.random((5, NUM_EVENTS)) * 10
    candidate = rng.random(NUM_EVENTS) * 10
    sims = similarity_to_set(candidate, kept)
    for i in range(5):
        assert sims[i] == pytest.approx(
            modified_cosine(candidate, kept[i]), abs=1e-9
        )


def test_similarity_to_set_empty_kept():
    assert similarity_to_set(np.zeros(NUM_EVENTS), np.zeros((0, NUM_EVENTS))).size == 0


# ---- convention-parity regression (one shared kernel) ----------------
#
# The three public entry points once held subtly different conventions
# for degenerate inputs (an all-zero row against a nonzero row, two
# all-zero rows); now they all route through one kernel, and this
# differential fuzz pins that the conventions can never drift apart
# again — bit-exact equality, not approx.

degenerate_stacks = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=6),
        st.just(NUM_EVENTS),
    ),
    # Small integers make all-zero rows and shared-support ties common.
    elements=st.integers(min_value=0, max_value=2).map(float),
)


@given(stacks=degenerate_stacks)
@settings(max_examples=150, deadline=None)
def test_property_conventions_agree_bit_exactly(stacks):
    matrix = pairwise_modified_cosine(stacks)
    k = stacks.shape[0]
    for i in range(k):
        row = similarity_to_set(stacks[i], stacks)
        for j in range(k):
            scalar = modified_cosine(stacks[i], stacks[j])
            assert matrix[i, j] == scalar
            assert row[j] == scalar


def test_zero_row_conventions_are_identical_across_entry_points():
    zero = np.zeros(NUM_EVENTS)
    one = np.zeros(NUM_EVENTS)
    one[0] = 3.0
    population = np.stack([zero, one, zero])
    matrix = pairwise_modified_cosine(population)
    # both-zero pairs are identical-by-convention ...
    assert matrix[0, 2] == 1.0 == modified_cosine(zero, zero)
    assert similarity_to_set(zero, population)[2] == 1.0
    # ... while zero-vs-nonzero pairs are orthogonal, everywhere.
    assert matrix[0, 1] == 0.0 == modified_cosine(zero, one)
    assert similarity_to_set(one, population)[0] == 0.0


def test_sums_dimensions_in_index_order():
    """The compiled reducer sums dimensions in index order, so the spec
    must round the same way.  This pair of stall vectors (from a soplex
    reduction) sits on the 0.7 threshold: SIMD partial sums, as einsum
    computes them, give 0.6999999999999998; index order gives
    0.7000000000000001, so the pair merges."""
    a = np.array([2, 0, 0, 0, 2, 2, 0, 3, 0, 0, 0, 0, 1, 0, 3, 0, 0], float)
    b = np.array([3, 0, 0, 0, 12, 12, 0, 6, 10, 2, 0, 1, 2, 0, 9, 0, 2], float)
    dot = norm_a = norm_b = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        scale = max(x, y) or 1.0
        x, y = x / scale, y / scale
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    expected = min(dot / math.sqrt(norm_a * norm_b), 1.0)
    assert modified_cosine(a, b) == expected > 0.7
    assert pairwise_modified_cosine(np.vstack([a, b]))[0, 1] == expected
