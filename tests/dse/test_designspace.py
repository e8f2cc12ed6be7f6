"""Design-space enumeration tests."""

import pytest

from repro.common.config import LatencyConfig
from repro.common.events import EventType
from repro.dse.designspace import DesignSpace, reduction_space


def space(**axes):
    return DesignSpace.from_mapping(
        {EventType[name]: values for name, values in axes.items()}
    )


def test_point_count_is_cartesian_product():
    s = space(L1D=[1, 2, 4], FP_ADD=[1, 3, 6], MEM_D=[66, 133])
    assert s.num_points == 18
    assert len(s.points()) == 18


def test_points_cover_all_combinations():
    s = space(L1D=[1, 2], LD=[1, 2])
    combos = {(p[EventType.L1D], p[EventType.LD]) for p in s}
    assert combos == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_unswept_events_keep_base_values():
    base = LatencyConfig().with_overrides({EventType.FP_DIV: 12})
    s = DesignSpace.from_mapping({EventType.L1D: [1]}, base=base)
    point = s.points()[0]
    assert point[EventType.FP_DIV] == 12


def test_axis_values_are_deduplicated_and_sorted():
    s = space(L1D=[4, 1, 4, 2])
    assert dict(s.axes)[EventType.L1D] == (1, 2, 4)


def test_structure_domain_axes_rejected():
    with pytest.raises(ValueError, match="structure-domain"):
        DesignSpace.from_mapping({EventType.BR_MISP: [1, 2]})


def test_empty_axis_rejected():
    with pytest.raises(ValueError, match="empty axis"):
        space(L1D=[])


def test_negative_latency_rejected():
    with pytest.raises(ValueError, match="negative"):
        space(L1D=[-1, 2])


def test_sample_is_deterministic_and_in_space():
    s = space(L1D=[1, 2, 4], FP_MUL=[1, 6])
    a = s.sample(10, seed=3)
    b = s.sample(10, seed=3)
    assert a == b
    valid_l1d = {1, 2, 4}
    for point in a:
        assert point[EventType.L1D] in valid_l1d


def test_reduction_space_scales_baseline():
    s = reduction_space(
        [EventType.FP_ADD], fractions=(1.0, 0.5, 0.25)
    )
    values = dict(s.axes)[EventType.FP_ADD]
    assert values == (2, 3, 6)  # 6*0.25 -> 2 (rounded), 6*0.5 -> 3


def test_reduction_space_clamps_to_one_cycle():
    s = reduction_space([EventType.LD], fractions=(0.1,))
    assert dict(s.axes)[EventType.LD] == (1,)


def test_len_matches_num_points():
    s = space(L1D=[1, 2])
    assert len(s) == 2


class TestArrayEnumeration:
    def big_space(self):
        return space(
            L1D=[1, 2, 4], FP_ADD=[1, 3, 6], MEM_D=[33, 66, 133], LD=[1, 2]
        )

    def test_theta_matrix_matches_materialised_points(self):
        s = self.big_space()
        thetas = s.theta_matrix()
        points = s.points()
        assert thetas.shape == (18, len(points))
        for index, point in enumerate(points):
            assert (thetas[:, index] == point.as_vector()).all()

    def test_point_at_matches_enumeration_order(self):
        s = self.big_space()
        for index, point in enumerate(s.points()):
            assert s.point_at(index) == point

    def test_point_at_rejects_out_of_range(self):
        s = space(L1D=[1, 2])
        with pytest.raises(IndexError):
            s.point_at(2)
        with pytest.raises(IndexError):
            s.point_at(-1)

    def test_theta_matrix_chunks_concatenate_to_full(self):
        import numpy as np

        s = self.big_space()
        chunks = [s.theta_matrix(lo, hi) for lo, hi in s.iter_chunks(7)]
        assert np.array_equal(np.hstack(chunks), s.theta_matrix())

    def test_theta_matrix_rejects_bad_ranges(self):
        s = space(L1D=[1, 2])
        with pytest.raises(IndexError):
            s.theta_matrix(0, 3)
        with pytest.raises(IndexError):
            s.theta_matrix(2, 1)

    def test_iter_chunks_cover_exactly(self):
        s = self.big_space()
        ranges = list(s.iter_chunks(10))
        assert ranges[0][0] == 0
        assert ranges[-1][1] == s.num_points
        total = sum(hi - lo for lo, hi in ranges)
        assert total == s.num_points

    def test_bounds_box_every_point_even_over_unsorted_axes(self):
        base = LatencyConfig()
        # Built directly, so the axis keeps its unsorted order.
        s = DesignSpace(
            base=base,
            axes=((EventType.L1D, (3, 1, 4)), (EventType.FP_ADD, (6, 2))),
        )
        lo, hi = s.bounds()
        assert (lo[EventType.L1D], hi[EventType.L1D]) == (1, 4)
        assert (lo[EventType.FP_ADD], hi[EventType.FP_ADD]) == (2, 6)
        unswept = EventType.MEM_D
        assert lo[unswept] == hi[unswept] == base[unswept]
        thetas = s.theta_matrix()
        assert (thetas.min(axis=1) == lo).all()
        assert (thetas.max(axis=1) == hi).all()


class TestSampleWithoutReplacement:
    def test_full_sample_has_no_duplicates(self):
        s = space(L1D=[1, 2, 4], FP_ADD=[1, 3, 6])
        picks = s.sample(s.num_points, seed=5)
        assert len(set(picks)) == s.num_points

    def test_partial_sample_has_no_duplicates(self):
        s = space(L1D=[1, 2, 4], FP_ADD=[1, 3, 6], MEM_D=[33, 66, 133])
        picks = s.sample(20, seed=11)
        assert len(set(picks)) == 20

    def test_oversampling_falls_back_to_replacement(self):
        s = space(L1D=[1, 2])
        picks = s.sample(10, seed=2)
        assert len(picks) == 10  # duplicates unavoidable, documented
