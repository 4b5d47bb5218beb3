"""Periodic box: wrapping, minimum image, distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.box import Box


@pytest.fixture()
def box():
    return Box((10.0, 20.0, 30.0))


class TestConstruction:
    def test_lengths_stored(self, box):
        assert box.lengths.tolist() == [10.0, 20.0, 30.0]

    def test_volume(self, box):
        assert box.volume == pytest.approx(6000.0)

    def test_min_length(self, box):
        assert box.min_length() == 10.0

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            Box((1.0, 0.0, 1.0))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Box((1.0, 2.0))

    def test_default_fully_periodic(self, box):
        assert box.periodic.all()


class TestWrap:
    def test_wrap_into_primary_cell(self, box):
        wrapped = box.wrap(np.array([[11.0, -1.0, 31.0]]))
        assert np.allclose(wrapped, [[1.0, 19.0, 1.0]])

    def test_wrap_leaves_interior_points(self, box):
        p = np.array([[5.0, 5.0, 5.0]])
        assert np.allclose(box.wrap(p), p)

    def test_wrap_respects_open_boundaries(self):
        open_box = Box((10.0, 10.0, 10.0), periodic=(True, False, True))
        wrapped = open_box.wrap(np.array([[11.0, 11.0, 11.0]]))
        assert np.allclose(wrapped, [[1.0, 11.0, 1.0]])

    def test_wrap_returns_new_array(self, box):
        p = np.array([[11.0, 0.0, 0.0]])
        box.wrap(p)
        assert p[0, 0] == 11.0

    def test_wrapped_points_are_contained(self, box, rng):
        points = rng.uniform(-100, 100, size=(200, 3))
        assert box.contains(box.wrap(points)).all()


class TestMinimumImage:
    def test_folds_to_nearest_image(self, box):
        delta = box.minimum_image(np.array([[9.0, 0.0, 0.0]]))
        assert np.allclose(delta, [[-1.0, 0.0, 0.0]])

    def test_small_displacement_unchanged(self, box):
        d = np.array([[1.0, -2.0, 3.0]])
        assert np.allclose(box.minimum_image(d), d)

    def test_components_bounded_by_half_length(self, box, rng):
        deltas = box.minimum_image(rng.uniform(-100, 100, size=(500, 3)))
        half = box.lengths / 2
        assert np.all(np.abs(deltas) <= half + 1e-9)

    def test_open_axis_not_folded(self):
        open_box = Box((10.0, 10.0, 10.0), periodic=(False, True, True))
        d = box_d = np.array([[9.0, 9.0, 0.0]])
        out = open_box.minimum_image(d)
        assert out[0, 0] == 9.0
        assert out[0, 1] == -1.0


class TestDistance:
    def test_distance_across_boundary(self, box):
        a = np.array([0.5, 0.0, 0.0])
        b = np.array([9.5, 0.0, 0.0])
        assert box.distance(a, b) == pytest.approx(1.0)

    def test_distance_symmetry(self, box, rng):
        a = rng.uniform(0, 10, size=(50, 3))
        b = rng.uniform(0, 10, size=(50, 3))
        assert np.allclose(box.distance(a, b), box.distance(b, a))

    def test_self_distance_zero(self, box):
        p = np.array([1.0, 2.0, 3.0])
        assert box.distance(p, p) == pytest.approx(0.0)


class TestMaxCutoff:
    def test_half_min_length(self, box):
        assert box.max_cutoff() == pytest.approx(5.0)

    def test_open_box_unbounded(self):
        open_box = Box((5.0, 5.0, 5.0), periodic=(False, False, False))
        assert open_box.max_cutoff() == float("inf")


class TestScaled:
    def test_scaling_lengths(self, box):
        assert box.scaled(2.0).lengths.tolist() == [20.0, 40.0, 60.0]

    def test_scaling_preserves_periodicity(self):
        b = Box((5.0, 5.0, 5.0), periodic=(True, False, True))
        assert b.scaled(1.1).periodic.tolist() == [True, False, True]

    def test_rejects_nonpositive_factor(self, box):
        with pytest.raises(ValueError):
            box.scaled(0.0)


@given(
    st.floats(1.0, 100.0),
    st.floats(-500.0, 500.0),
)
@settings(max_examples=60)
def test_wrap_is_idempotent(length, coord):
    box = Box((length, length, length))
    once = box.wrap(np.array([[coord, 0.0, 0.0]]))
    twice = box.wrap(once)
    assert np.allclose(once, twice)


@given(
    st.floats(2.0, 50.0),
    st.floats(-100.0, 100.0),
    st.floats(-100.0, 100.0),
)
@settings(max_examples=60)
def test_minimum_image_invariant_under_lattice_shift(length, x, shift_cells):
    """Displacements differing by whole box lengths fold identically."""
    box = Box((length, length, length))
    d1 = np.array([[x, 0.0, 0.0]])
    d2 = d1 + np.array([[round(shift_cells) * length, 0.0, 0.0]])
    assert np.allclose(
        box.minimum_image(d1), box.minimum_image(d2), atol=1e-8 * length
    )


def _per_axis_minimum_image(box, d):
    """The per-axis fold, written out: ``d - L*floor(d/L + 0.5)``."""
    out = np.array(d, dtype=np.float64)
    for axis in range(3):
        if box.periodic[axis]:
            length = box.lengths[axis]
            out[..., axis] = out[..., axis] - length * np.floor(
                out[..., axis] / length + 0.5
            )
    return out


def _per_axis_wrap(box, x):
    """The per-axis wrap, written out: ``x % L``, with ``L`` mapped to 0."""
    out = np.array(x, dtype=np.float64)
    for axis in range(3):
        if box.periodic[axis]:
            length = box.lengths[axis]
            component = out[..., axis] % length
            out[..., axis] = np.where(component >= length, 0.0, component)
    return out


_SHAPES = ((3,), (17, 3), (4, 5, 3))


@st.composite
def _box_and_vectors(draw):
    """A random box (mixed periodic flags) and ``(..., 3)`` vectors that
    include exact ``±L/2`` ties, odd multiples of them, and signed zeros."""
    lengths = draw(st.lists(st.floats(0.5, 100.0), min_size=3, max_size=3))
    periodic = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    shape = draw(st.sampled_from(_SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    box = Box(lengths, periodic)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, size=shape) * box.lengths
    flat = values.reshape(-1, 3)
    n_special = draw(st.integers(0, len(flat)))
    for row in rng.choice(len(flat), size=n_special, replace=False):
        axis = int(rng.integers(3))
        flat[row, axis] = rng.choice(
            [0.5, -0.5, 1.5, -1.5, 1.0, -1.0, 0.0, -0.0]
        ) * box.lengths[axis]
    return box, values


class TestFoldMatchesPerAxisReference:
    @given(_box_and_vectors())
    @settings(max_examples=200, deadline=None)
    def test_minimum_image_bit_identical(self, case):
        box, d = case
        before = d.copy()
        out = box.minimum_image(d)
        assert out.shape == d.shape
        assert out.tobytes() == _per_axis_minimum_image(box, d).tobytes()
        assert d.tobytes() == before.tobytes()

    @given(_box_and_vectors())
    @settings(max_examples=200, deadline=None)
    def test_wrap_bit_identical(self, case):
        box, x = case
        before = x.copy()
        out = box.wrap(x)
        assert out.tobytes() == _per_axis_wrap(box, x).tobytes()
        assert x.tobytes() == before.tobytes()

    def test_ties_bit_identical_across_many_lengths(self, rng):
        # ``L*fl(1/L) != 1`` for many L (49.0 is the classic case), so a
        # fold by reciprocal multiplication would break exactly these ties
        lengths = np.concatenate([[49.0], rng.uniform(0.5, 100.0, 299)])
        for length in lengths:
            box = Box((length, 2.0 * length, 0.5 * length))
            d = np.outer([-3.0, -1.0, 1.0, 3.0, 0.5, -0.5], box.lengths / 2)
            assert (
                box.minimum_image(d).tobytes()
                == _per_axis_minimum_image(box, d).tobytes()
            )

    def test_exact_half_length_tie_folds_down(self, box):
        d = np.array([[5.0, -10.0, 15.0], [-5.0, 10.0, -15.0]])
        assert box.minimum_image(d).tolist() == [
            [-5.0, -10.0, -15.0],
            [-5.0, -10.0, -15.0],
        ]


class TestPairDisplacements:
    @given(_box_and_vectors(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_fold_of_gathered_differences(self, case, seed):
        box, values = case
        positions = values.reshape(-1, 3)
        rng = np.random.default_rng(seed)
        i_idx = rng.integers(0, len(positions), size=40)
        j_idx = rng.integers(0, len(positions), size=40)
        delta, r2 = box.pair_displacements(positions, i_idx, j_idx)
        expected = _per_axis_minimum_image(
            box, positions[i_idx] - positions[j_idx]
        )
        assert delta.tobytes() == expected.tobytes()
        np.testing.assert_allclose(
            r2, np.sum(expected * expected, axis=1), rtol=1e-15, atol=0.0
        )

    def test_empty_slice(self, box):
        none = np.empty(0, dtype=np.int64)
        delta, r2 = box.pair_displacements(np.zeros((4, 3)), none, none)
        assert delta.shape == (0, 3)
        assert r2.shape == (0,)

    def test_out_of_range_index_raises(self, box):
        with pytest.raises(IndexError):
            box.pair_displacements(
                np.zeros((4, 3)), np.array([0, 4]), np.array([1, 2])
            )
