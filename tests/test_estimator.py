"""Tests for repro.core.estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import (
    DistanceEstimate,
    confidence_interval_halfwidth,
    estimate_distances,
    estimate_inner_product,
    inner_product_to_squared_distance,
)
from repro.core.theory import error_bound_epsilon
from repro.exceptions import InvalidParameterError


class TestEstimateInnerProduct:
    def test_elementwise_division(self):
        result = estimate_inner_product(np.array([0.4, 0.6]), np.array([0.8, 0.8]))
        np.testing.assert_allclose(result, [0.5, 0.75])

    def test_zero_alignment_yields_zero(self):
        result = estimate_inner_product(np.array([0.4]), np.array([0.0]))
        assert result[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            estimate_inner_product(np.zeros(2), np.zeros(3))


class TestConfidenceInterval:
    def test_matches_scalar_formula(self):
        alignment = np.array([0.8, 0.9])
        widths = confidence_interval_halfwidth(alignment, 128, 1.9)
        for value, width in zip(alignment, widths):
            assert width == pytest.approx(error_bound_epsilon(value, 128, 1.9))

    def test_zero_alignment_infinite(self):
        widths = confidence_interval_halfwidth(np.array([0.0]), 128, 1.9)
        assert np.isinf(widths[0])

    def test_narrower_for_longer_codes(self):
        short = confidence_interval_halfwidth(np.array([0.8]), 64, 1.9)[0]
        long = confidence_interval_halfwidth(np.array([0.8]), 1024, 1.9)[0]
        assert long < short

    def test_invalid_code_length(self):
        with pytest.raises(InvalidParameterError):
            confidence_interval_halfwidth(np.array([0.8]), 1, 1.9)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            confidence_interval_halfwidth(np.array([0.8]), 128, -1.0)


class TestInnerProductToSquaredDistance:
    def test_identity_case(self):
        # Same point: norm 1 both sides, inner product 1 -> distance 0.
        result = inner_product_to_squared_distance(
            np.array([1.0]), np.array([1.0]), 1.0
        )
        assert result[0] == pytest.approx(0.0)

    def test_orthogonal_case(self):
        result = inner_product_to_squared_distance(
            np.array([0.0]), np.array([1.0]), 1.0
        )
        assert result[0] == pytest.approx(2.0)

    def test_matches_raw_distance(self, rng):
        centroid = rng.standard_normal(8)
        data = rng.standard_normal((5, 8))
        query = rng.standard_normal(8)
        data_res = data - centroid
        query_res = query - centroid
        data_norms = np.linalg.norm(data_res, axis=1)
        query_norm = np.linalg.norm(query_res)
        ips = (data_res / data_norms[:, None]) @ (query_res / query_norm)
        reconstructed = inner_product_to_squared_distance(ips, data_norms, query_norm)
        expected = ((data - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(reconstructed, expected, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            inner_product_to_squared_distance(np.zeros(2), np.zeros(3), 1.0)

    def test_negative_query_norm(self):
        with pytest.raises(InvalidParameterError):
            inner_product_to_squared_distance(np.zeros(2), np.zeros(2), -1.0)


class TestEstimateDistances:
    def _make_inputs(self, rng):
        n = 50
        alignment = np.full(n, 0.8)
        true_ip = rng.uniform(-0.5, 0.5, size=n)
        quantized_dot = true_ip * alignment
        norms = rng.uniform(0.5, 2.0, size=n)
        return quantized_dot, alignment, norms, true_ip

    def test_distances_non_negative(self, rng):
        quantized_dot, alignment, norms, _ = self._make_inputs(rng)
        estimate = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 1.9)
        assert (estimate.distances >= 0.0).all()
        assert (estimate.lower_bounds >= 0.0).all()

    def test_bounds_bracket_estimate(self, rng):
        quantized_dot, alignment, norms, _ = self._make_inputs(rng)
        estimate = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 1.9)
        assert (estimate.lower_bounds <= estimate.distances + 1e-9).all()
        assert (estimate.distances <= estimate.upper_bounds + 1e-9).all()

    def test_zero_epsilon_collapses_bounds(self, rng):
        quantized_dot, alignment, norms, _ = self._make_inputs(rng)
        estimate = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 0.0)
        np.testing.assert_allclose(estimate.lower_bounds, estimate.distances, atol=1e-9)
        np.testing.assert_allclose(estimate.upper_bounds, estimate.distances, atol=1e-9)

    def test_inner_products_recovered(self, rng):
        quantized_dot, alignment, norms, true_ip = self._make_inputs(rng)
        estimate = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 1.9)
        np.testing.assert_allclose(estimate.inner_products, true_ip, atol=1e-12)

    def test_len(self, rng):
        quantized_dot, alignment, norms, _ = self._make_inputs(rng)
        estimate = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 1.9)
        assert len(estimate) == 50
        assert isinstance(estimate, DistanceEstimate)

    def test_larger_epsilon_widens_bounds(self, rng):
        quantized_dot, alignment, norms, _ = self._make_inputs(rng)
        narrow = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 1.0)
        wide = estimate_distances(quantized_dot, alignment, norms, 1.5, 128, 3.0)
        assert (wide.lower_bounds <= narrow.lower_bounds + 1e-12).all()
        assert (wide.upper_bounds >= narrow.upper_bounds - 1e-12).all()
