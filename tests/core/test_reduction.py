"""Path-reduction tests: dominance soundness, uniqueness, merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.core.reduction import (
    ReductionPolicy,
    reduce_stacks,
    unique_dimension_mask,
)

BASE_THETA = LatencyConfig().as_vector()


def stack(**units):
    vec = np.zeros(NUM_EVENTS)
    for name, value in units.items():
        vec[EventType[name]] = value
    return vec


def stacks(*rows):
    return np.asarray(rows)


class TestPolicy:
    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            ReductionPolicy(similarity_threshold=1.5)

    def test_max_paths_positive(self):
        with pytest.raises(ValueError):
            ReductionPolicy(max_paths=0)


class TestDominance:
    def test_dominated_row_is_dropped(self):
        population = stacks(
            stack(L1D=3, FP_ADD=2),
            stack(L1D=2, FP_ADD=1),  # dominated
        )
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        assert reduced.shape[0] == 1
        assert (reduced[0] == population[0]).all()

    def test_incomparable_rows_survive(self):
        population = stacks(
            stack(FP_ADD=10),
            stack(MEM_D=1),
        )
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        assert reduced.shape[0] == 2

    def test_duplicates_collapse_to_one(self):
        row = stack(L1D=2, LD=1)
        reduced = reduce_stacks(
            stacks(row, row, row), BASE_THETA, ReductionPolicy()
        )
        assert reduced.shape[0] == 1

    def test_dominance_is_sound_for_any_pricing(self):
        # If A is dropped by dominance, no non-negative pricing makes A
        # longer than the kept set's maximum.
        population = stacks(
            stack(L1D=3, FP_ADD=2, LD=1),
            stack(L1D=1, FP_ADD=2),
            stack(L1D=3, FP_ADD=1, LD=1),
        )
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.random(NUM_EVENTS) * 100
            assert (population @ theta).max() <= (reduced @ theta).max() + 1e-9


class TestUniqueness:
    def test_unique_dimension_mask(self):
        population = stacks(
            stack(L1D=5, FP_ADD=1),
            stack(L1D=4, FP_ADD=2),
            stack(L1D=1, FP_DIV=1),  # only row with FP_DIV
        )
        mask = unique_dimension_mask(population)
        assert mask.tolist() == [False, False, True]

    def test_unique_path_survives_merging(self):
        # Rows 0 and 2 are highly similar; row 2 owns MEM_D so it must
        # not be merged away.
        population = stacks(
            stack(L1D=10, LD=5),
            stack(L1D=9, LD=5, MEM_D=1),
        )
        policy = ReductionPolicy(similarity_threshold=0.5)
        reduced = reduce_stacks(population, BASE_THETA, policy)
        assert reduced.shape[0] == 2

    def test_disabling_uniqueness_allows_the_merge(self):
        population = stacks(
            stack(L1D=10, LD=5),
            stack(L1D=9, LD=5, MEM_D=1),
        )
        policy = ReductionPolicy(
            similarity_threshold=0.5, preserve_unique=False
        )
        reduced = reduce_stacks(population, BASE_THETA, policy)
        # MEM_D row prices higher at baseline (133 > ...), so it is the
        # keeper; the other is absorbed.
        assert reduced.shape[0] == 1


class TestMerging:
    def test_similar_rows_merge_keeping_larger(self):
        population = stacks(
            stack(FP_ADD=10, L1D=2),
            stack(FP_ADD=9, L1D=2),
        )
        policy = ReductionPolicy(similarity_threshold=0.7)
        reduced = reduce_stacks(population, BASE_THETA, policy)
        assert reduced.shape[0] == 1
        assert reduced[0][EventType.FP_ADD] == 10

    def test_dissimilar_rows_survive(self):
        population = stacks(
            stack(FP_ADD=10),
            stack(L1D=10),
        )
        policy = ReductionPolicy(similarity_threshold=0.7)
        reduced = reduce_stacks(population, BASE_THETA, policy)
        assert reduced.shape[0] == 2

    def test_threshold_one_disables_merging(self):
        # Incomparable rows (neither dominates) that are highly similar:
        # only merging could collapse them, and τ=1 turns merging off.
        population = stacks(
            stack(FP_ADD=10, L1D=2),
            stack(FP_ADD=9, L1D=3),
        )
        policy = ReductionPolicy(similarity_threshold=1.0)
        reduced = reduce_stacks(population, BASE_THETA, policy)
        assert reduced.shape[0] == 2


class TestCap:
    def test_population_capped(self):
        rng = np.random.default_rng(1)
        population = rng.random((100, NUM_EVENTS)) * 10
        policy = ReductionPolicy(similarity_threshold=1.0, max_paths=8)
        reduced = reduce_stacks(population, BASE_THETA, policy)
        assert reduced.shape[0] <= 8

    def test_baseline_maximum_always_first(self):
        rng = np.random.default_rng(2)
        population = rng.random((50, NUM_EVENTS)) * 10
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        assert (reduced @ BASE_THETA).max() == pytest.approx(
            (population @ BASE_THETA).max()
        )
        assert reduced[0] @ BASE_THETA == pytest.approx(
            (population @ BASE_THETA).max()
        )


class TestProperties:
    populations = hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_value=1, max_value=20), st.just(NUM_EVENTS)
        ),
        elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )

    @given(population=populations)
    @settings(max_examples=60, deadline=None)
    def test_property_reduction_never_grows(self, population):
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        assert 1 <= reduced.shape[0] <= population.shape[0]

    @given(population=populations)
    @settings(max_examples=60, deadline=None)
    def test_property_kept_rows_come_from_input(self, population):
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        originals = {row.tobytes() for row in population}
        for row in reduced:
            assert row.tobytes() in originals

    @given(population=populations)
    @settings(max_examples=60, deadline=None)
    def test_property_baseline_maximum_preserved(self, population):
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        assert (reduced @ BASE_THETA).max() == pytest.approx(
            (population @ BASE_THETA).max()
        )

    @given(population=populations)
    @settings(max_examples=60, deadline=None)
    def test_property_result_sorted_by_baseline_penalty(self, population):
        reduced = reduce_stacks(population, BASE_THETA, ReductionPolicy())
        penalties = reduced @ BASE_THETA
        assert (np.diff(penalties) <= 1e-9).all()


class TestBaseInSimilarity:
    def test_including_base_inflates_similarity(self):
        # Two paths sharing the pipeline backbone (BASE) plus two stall
        # dims, each owning one distinct event.  Per-dimension-max
        # normalisation gives sim = shared/sqrt(d_a * d_b): with the
        # backbone counted that is 3/4 = 0.75 > tau, without it
        # 2/3 = 0.67 < tau — including BASE flips the merge decision.
        population = stacks(
            stack(BASE=100, L1D=8, LD=4, FP_ADD=6),
            stack(BASE=100, L1D=8, LD=4, MEM_D=1),
        )
        stall_only = reduce_stacks(
            population, BASE_THETA,
            ReductionPolicy(similarity_threshold=0.7),
        )
        with_base = reduce_stacks(
            population, BASE_THETA,
            ReductionPolicy(
                similarity_threshold=0.7,
                include_base_in_similarity=True,
                preserve_unique=False,
            ),
        )
        assert stall_only.shape[0] == 2
        assert with_base.shape[0] == 1

    def test_uniqueness_protects_under_base_similarity(self):
        # Same backbone-dominated pair, but each owns its dimension, so
        # with preservation on both survive even base-style similarity.
        population = stacks(
            stack(BASE=100, L1D=8, LD=4, FP_ADD=6),
            stack(BASE=100, L1D=8, LD=4, MEM_D=1),
        )
        kept = reduce_stacks(
            population, BASE_THETA,
            ReductionPolicy(
                similarity_threshold=0.7,
                include_base_in_similarity=True,
                preserve_unique=True,
            ),
        )
        assert kept.shape[0] == 2


class TestCapPriority:
    """The max_paths cap when unique rows alone exceed the budget:
    row 0 (the baseline maximum) always survives, then uniqueness
    witnesses in descending-penalty order, then everything else."""

    THETA = np.ones(NUM_EVENTS)

    def population(self):
        # Penalties (under unit pricing) strictly descend; rows 0 and 1
        # share their support (neither is unique), rows 2-4 each own a
        # dimension no other row touches.  No row dominates another.
        return stacks(
            stack(L1D=10, LD=2),      # 12: baseline maximum, non-unique
            stack(L1D=2, LD=9),       # 11: non-unique
            stack(L1D=1, FP_ADD=9),   # 10: owns FP_ADD
            stack(L1D=1, MEM_D=8),    # 9:  owns MEM_D
            stack(L1D=1, L2D=7),      # 8:  owns L2D
        )

    def test_unique_rows_outrank_larger_non_unique_rows(self):
        population = self.population()
        policy = ReductionPolicy(similarity_threshold=1.0, max_paths=3)
        reduced = reduce_stacks(population, self.THETA, policy)
        expected = population[[0, 2, 3]]
        assert reduced.shape == expected.shape
        assert (reduced == expected).all()
        # The non-unique row 1 lost its slot to smaller unique rows,
        # and the smallest unique row fell off the end of the budget.
        kept = {row.tobytes() for row in reduced}
        assert population[1].tobytes() not in kept
        assert population[4].tobytes() not in kept

    def test_baseline_maximum_survives_a_cap_of_one(self):
        population = self.population()
        policy = ReductionPolicy(similarity_threshold=1.0, max_paths=1)
        reduced = reduce_stacks(population, self.THETA, policy)
        assert reduced.shape[0] == 1
        assert (reduced[0] == population[0]).all()

    def test_without_preservation_cap_is_by_penalty(self):
        population = self.population()
        policy = ReductionPolicy(
            similarity_threshold=1.0, max_paths=3, preserve_unique=False
        )
        reduced = reduce_stacks(population, self.THETA, policy)
        assert (reduced == population[[0, 1, 2]]).all()


class TestPairParity:
    """Duplicate elimination must leave a pair's reduction unchanged —
    pinned as a differential property over random pairs, zero-priced
    theta dimensions and exact ties."""

    pair_rows = hnp.arrays(
        dtype=np.float64,
        shape=(2, NUM_EVENTS),
        # Small integers on purpose: exact penalty ties and identical
        # rows then occur often enough for hypothesis to exercise the
        # dedup/tiebreak branches.
        elements=st.integers(min_value=0, max_value=3).map(float),
    )
    thetas = hnp.arrays(
        dtype=np.float64,
        shape=NUM_EVENTS,
        # Zeros allowed: a zero-priced dimension makes distinct rows tie
        # exactly, which exercises the penalty tiebreak.
        elements=st.integers(min_value=0, max_value=4).map(float),
    )

    @given(
        pair=pair_rows,
        theta=thetas,
        threshold=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        max_paths=st.integers(min_value=1, max_value=4),
        preserve_unique=st.booleans(),
        include_base=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_fast_path_matches_general_path(
        self, pair, theta, threshold, max_paths, preserve_unique,
        include_base,
    ):
        policy = ReductionPolicy(
            similarity_threshold=threshold,
            max_paths=max_paths,
            preserve_unique=preserve_unique,
            include_base_in_similarity=include_base,
        )
        # Appending a duplicate of the first row must not matter: dedup
        # collapses it back to the same two-row population before
        # reducing.
        fast = reduce_stacks(pair, theta, policy)
        general = reduce_stacks(
            np.vstack([pair, pair[:1]]), theta, policy
        )
        assert fast.shape == general.shape
        assert (fast == general).all()
