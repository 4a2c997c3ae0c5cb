"""Property-based tests (hypothesis) for the RaBitQ core invariants.

The invariants checked here are the load-bearing facts of the paper:

* rotations preserve norms and inner products,
* quantization codes reconstruct to unit vectors with positive alignment,
* the distance-decomposition identity (Eq. 2) holds exactly,
* the estimator's confidence interval always brackets its point estimate,
* query quantization error never exceeds one quantization step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.codebook import bits_to_signed, signed_to_bits
from repro.core.config import RaBitQConfig, padded_code_length
from repro.core.estimator import estimate_distances, inner_product_to_squared_distance
from repro.core.normalization import normalize_query, normalize_to_centroid
from repro.core.quantizer import RaBitQ
from repro.core.query import quantize_query_matrix
from repro.core.rotation import QRRotation

_SETTINGS = dict(max_examples=40, deadline=None)

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestRotationProperties:
    @given(
        data=st.data(),
        dim=st.integers(2, 48),
        n=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(**_SETTINGS)
    def test_norms_and_inner_products_preserved(self, data, dim, n, seed):
        vecs = data.draw(hnp.arrays(np.float64, (n, dim), elements=finite_floats))
        rotation = QRRotation(dim, seed)
        rotated = rotation.apply(vecs)
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=1), np.linalg.norm(vecs, axis=1), atol=1e-8
        )
        np.testing.assert_allclose(
            rotated @ rotated.T, vecs @ vecs.T, atol=1e-7
        )
        np.testing.assert_allclose(
            rotation.apply_inverse(rotated), vecs, atol=1e-8
        )


class TestCodebookProperties:
    @given(data=st.data(), dim=st.integers(1, 200), n=st.integers(1, 4))
    @settings(**_SETTINGS)
    def test_signed_vectors_are_unit_norm(self, data, dim, n):
        bits = data.draw(hnp.arrays(np.uint8, (n, dim), elements=st.integers(0, 1)))
        signed = bits_to_signed(bits, dim)
        np.testing.assert_allclose(np.linalg.norm(signed, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(signed_to_bits(signed), bits)


class TestNormalizationProperties:
    @given(data=st.data(), dim=st.integers(2, 32), n=st.integers(2, 20))
    @settings(**_SETTINGS)
    def test_distance_decomposition_identity(self, data, dim, n):
        # Eq. 2: the squared raw distance decomposes exactly through the
        # normalized representation, for any centroid.
        points = data.draw(hnp.arrays(np.float64, (n, dim), elements=finite_floats))
        query = data.draw(hnp.arrays(np.float64, dim, elements=finite_floats))
        centroid = data.draw(hnp.arrays(np.float64, dim, elements=finite_floats))
        normalized = normalize_to_centroid(points, centroid)
        unit_query, query_norm = normalize_query(query, centroid)
        ips = normalized.unit_vectors @ unit_query
        rebuilt = inner_product_to_squared_distance(ips, normalized.norms, query_norm)
        expected = ((points - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(rebuilt, expected, atol=1e-6, rtol=1e-6)


class TestQueryQuantizationProperties:
    @given(
        data=st.data(),
        dim=st.integers(1, 128),
        bits=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(**_SETTINGS)
    def test_error_never_exceeds_step(self, data, dim, bits, seed):
        query = data.draw(hnp.arrays(np.float64, dim, elements=finite_floats))
        quantized = quantize_query_matrix(query[None, :], bits, rng=seed)
        errors = np.abs(quantized.dequantize()[0] - query)
        assert (errors <= quantized.delta * (1 + 1e-9)).all()
        assert int(quantized.codes.max(initial=0)) <= 2**bits - 1


class TestEstimatorProperties:
    @given(
        data=st.data(),
        n=st.integers(1, 30),
        code_length=st.integers(2, 512),
        epsilon0=st.floats(0.0, 5.0),
    )
    @settings(**_SETTINGS)
    def test_bounds_bracket_estimate(self, data, n, code_length, epsilon0):
        alignment = data.draw(
            hnp.arrays(np.float64, n, elements=st.floats(0.1, 0.999))
        )
        quantized_dot = data.draw(
            hnp.arrays(np.float64, n, elements=st.floats(-0.999, 0.999))
        )
        norms = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 10.0)))
        query_norm = data.draw(st.floats(0.0, 10.0))
        estimate = estimate_distances(
            quantized_dot, alignment, norms, query_norm, code_length, epsilon0
        )
        assert (estimate.lower_bounds <= estimate.distances + 1e-9).all()
        assert (estimate.distances <= estimate.upper_bounds + 1e-9).all()
        assert (estimate.distances >= 0.0).all()


class TestQuantizerProperties:
    @given(
        seed=st.integers(0, 50),
        dim=st.integers(4, 40),
        n=st.integers(5, 40),
    )
    @settings(max_examples=15, deadline=None)
    def test_end_to_end_estimation_error_is_bounded(self, seed, dim, n):
        # For any Gaussian dataset and query, the estimated distances stay
        # within a generous multiple of the theoretical error scale.
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, dim))
        query = rng.standard_normal(dim)
        quantizer = RaBitQ(RaBitQConfig(seed=seed)).fit(points)
        estimate = quantizer.estimate_distances(query)
        true = ((points - query) ** 2).sum(axis=1)
        mask = true > 1e-9
        if not mask.any():
            return
        rel = np.abs(estimate.distances[mask] - true[mask]) / true[mask]
        code_length = quantizer.code_length
        # Error of the unit-vector inner product is O(1/sqrt(D)); allow a
        # very generous constant so the test is robust yet meaningful.
        assert rel.mean() < 12.0 / np.sqrt(code_length)

    @given(seed=st.integers(0, 30), dim=st.integers(4, 40))
    @settings(max_examples=15, deadline=None)
    def test_padding_is_deterministic_and_aligned(self, seed, dim):
        assert padded_code_length(dim) % 64 == 0
        assert padded_code_length(dim) >= dim
