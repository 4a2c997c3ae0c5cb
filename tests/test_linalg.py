"""Tests for repro.substrates.linalg."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionMismatchError
from repro.substrates.linalg import (
    as_float_matrix,
    gram_schmidt,
    is_orthogonal,
    normalize_rows,
    pairwise_squared_distances,
    squared_distances_to_point,
    squared_norms,
    stable_positions,
    stable_topk_indices,
)


class TestAsFloatMatrix:
    def test_promotes_vector_to_row(self):
        assert as_float_matrix(np.arange(4)).shape == (1, 4)

    def test_keeps_matrix_shape(self):
        assert as_float_matrix(np.zeros((3, 5))).shape == (3, 5)

    def test_converts_dtype(self):
        assert as_float_matrix(np.arange(4, dtype=np.int32)).dtype == np.float64

    def test_rejects_3d(self):
        with pytest.raises(DimensionMismatchError):
            as_float_matrix(np.zeros((2, 2, 2)))


class TestSquaredNorms:
    def test_values(self):
        mat = np.array([[3.0, 4.0], [1.0, 0.0]])
        np.testing.assert_allclose(squared_norms(mat), [25.0, 1.0])

    def test_zero_rows(self):
        np.testing.assert_allclose(squared_norms(np.zeros((2, 3))), [0.0, 0.0])


class TestNormalizeRows:
    def test_unit_norms(self, rng):
        mat = rng.standard_normal((10, 6))
        normalized = normalize_rows(mat)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_row_stays_zero(self):
        mat = np.array([[0.0, 0.0], [1.0, 1.0]])
        normalized, norms = normalize_rows(mat, return_norms=True)
        np.testing.assert_allclose(normalized[0], [0.0, 0.0])
        assert norms[0] == 0.0

    def test_returns_original_norms(self):
        mat = np.array([[3.0, 4.0]])
        _, norms = normalize_rows(mat, return_norms=True)
        np.testing.assert_allclose(norms, [5.0])

    def test_direction_preserved(self):
        mat = np.array([[2.0, 0.0]])
        np.testing.assert_allclose(normalize_rows(mat), [[1.0, 0.0]])


class TestPairwiseSquaredDistances:
    def test_against_naive(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((9, 5))
        expected = np.array([[np.sum((x - y) ** 2) for y in b] for x in a])
        np.testing.assert_allclose(pairwise_squared_distances(a, b), expected, atol=1e-9)

    def test_self_distance_zero(self, rng):
        a = rng.standard_normal((4, 3))
        dists = pairwise_squared_distances(a, a)
        np.testing.assert_allclose(np.diag(dists), 0.0, atol=1e-9)

    def test_non_negative(self, rng):
        a = rng.standard_normal((20, 8)) * 1e-4
        assert (pairwise_squared_distances(a, a) >= 0.0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairwise_squared_distances(np.zeros((2, 3)), np.zeros((2, 4)))


class TestSquaredDistancesToPoint:
    def test_matches_pairwise(self, rng):
        mat = rng.standard_normal((6, 4))
        point = rng.standard_normal(4)
        expected = pairwise_squared_distances(mat, point.reshape(1, -1)).ravel()
        np.testing.assert_allclose(
            squared_distances_to_point(mat, point), expected, atol=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            squared_distances_to_point(np.zeros((2, 3)), np.zeros(4))


class TestOrthogonality:
    def test_identity_is_orthogonal(self):
        assert is_orthogonal(np.eye(5))

    def test_scaled_identity_is_not(self):
        assert not is_orthogonal(2.0 * np.eye(5))

    def test_non_square_is_not(self):
        assert not is_orthogonal(np.zeros((3, 4)))

    def test_gram_schmidt_produces_orthogonal_rows(self, rng):
        mat = rng.standard_normal((6, 6))
        ortho = gram_schmidt(mat)
        np.testing.assert_allclose(ortho @ ortho.T, np.eye(6), atol=1e-8)

    def test_gram_schmidt_rejects_dependent_rows(self):
        mat = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            gram_schmidt(mat)


class TestStableTopkIndices:
    def test_matches_stable_argsort_prefix(self, rng):
        values = rng.standard_normal(300)
        for k in (1, 5, 120, 299):
            np.testing.assert_array_equal(
                stable_topk_indices(values, k),
                np.argsort(values, kind="stable")[:k],
            )

    def test_tie_order_is_stable(self):
        # Many duplicates straddling the selection boundary: ties must be
        # broken by ascending index, exactly like the stable full sort.
        values = np.array([2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 2.0, 1.0])
        np.testing.assert_array_equal(
            stable_topk_indices(values, 4), np.array([3, 1, 2, 4])
        )
        np.testing.assert_array_equal(
            stable_topk_indices(values, 6), np.array([3, 1, 2, 4, 5, 7])
        )

    def test_all_equal_values(self):
        values = np.full(10, 7.5)
        np.testing.assert_array_equal(stable_topk_indices(values, 4), np.arange(4))

    def test_k_at_least_n_returns_full_order(self, rng):
        values = rng.standard_normal(20)
        np.testing.assert_array_equal(
            stable_topk_indices(values, 20), np.argsort(values, kind="stable")
        )
        np.testing.assert_array_equal(
            stable_topk_indices(values, 50), np.argsort(values, kind="stable")
        )

    def test_k_nonpositive(self):
        assert stable_topk_indices(np.arange(5.0), 0).size == 0

    def test_requires_1d(self):
        with pytest.raises(DimensionMismatchError):
            stable_topk_indices(np.zeros((2, 2)), 1)

    def test_nan_fallback_matches_stable_sort(self):
        values = np.array([np.nan, 1.0, np.nan, 0.0])
        np.testing.assert_array_equal(
            stable_topk_indices(values, 3), np.argsort(values, kind="stable")[:3]
        )


class TestStablePositions:
    @given(
        st.one_of(
            # Few distinct values and NaN: tie blocks everywhere.
            st.lists(st.sampled_from([0.0, 1.0, -2.5, 3.0, np.nan]), max_size=60),
            # Distinct values, and at most one NaN: the binary-search path.
            st.lists(st.floats(-1e6, 1e6), max_size=60, unique=True).flatmap(
                lambda v: st.sampled_from([v, v + [np.nan]])
            ),
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_inverse_stable_argsort(self, values, data):
        values = np.array(values, dtype=np.float64)
        n = values.shape[0]
        subset = np.array(
            data.draw(st.lists(st.integers(0, n - 1), unique=True)) if n else [],
            dtype=np.intp,
        )
        rank = np.empty(n, dtype=np.intp)
        rank[np.argsort(values, kind="stable")] = np.arange(n)
        np.testing.assert_array_equal(stable_positions(values, subset), rank[subset])

    def test_requires_1d(self):
        with pytest.raises(DimensionMismatchError):
            stable_positions(np.zeros((2, 2)), np.array([0]))
