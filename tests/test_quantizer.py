"""Tests for repro.core.quantizer (the RaBitQ quantizer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.estimator import CONST_ALIGN, CONST_NORM
from repro.core.normalization import pad_vectors
from repro.core.quantizer import COMPUTE_MODES, RaBitQ
from repro.core.rotation import QRRotation
from repro.core.theory import expected_alignment
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.substrates.linalg import normalize_rows


@pytest.fixture(scope="module")
def data_and_query():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((400, 60))
    query = rng.standard_normal(60)
    return data, query


class TestFit:
    def test_code_length_padded_to_64(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        assert quantizer.code_length == 64
        assert quantizer.dim == 60

    def test_dataset_shapes(self, data_and_query):
        data, _ = data_and_query
        arena = RaBitQ(RaBitQConfig(seed=0)).fit(data).arena
        assert arena.codes.shape == (400, 1)
        assert arena.cluster_consts(0)[CONST_ALIGN].shape == (400,)
        assert arena.cluster_consts(0)[CONST_NORM].shape == (400,)
        assert arena.n_rows == 400
        assert arena.n_words == 1

    def test_alignment_near_expected_value(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        mean_alignment = float(quantizer.arena.cluster_consts(0)[CONST_ALIGN].mean())
        assert abs(mean_alignment - expected_alignment(64)) < 0.02

    def test_alignments_positive(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        assert (quantizer.arena.cluster_consts(0)[CONST_ALIGN] > 0.0).all()

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            RaBitQ().fit(np.empty((0, 16)))

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            RaBitQ().arena
        with pytest.raises(NotFittedError):
            RaBitQ().rotation

    def test_explicit_code_length(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(code_length=128, seed=0)).fit(data)
        assert quantizer.code_length == 128

    def test_custom_centroid(self, data_and_query):
        data, _ = data_and_query
        centroid = np.zeros(60)
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data, centroid=centroid)
        np.testing.assert_allclose(quantizer.centroid, centroid)
        np.testing.assert_allclose(
            quantizer.arena.cluster_consts(0)[CONST_NORM], np.linalg.norm(data, axis=1)
        )

    def test_shared_rotation_reused(self, data_and_query):
        data, _ = data_and_query
        rotation = QRRotation(64, 0)
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data, rotation=rotation)
        assert quantizer.rotation is rotation

    def test_wrong_rotation_dim_rejected(self, data_and_query):
        data, _ = data_and_query
        with pytest.raises(DimensionMismatchError):
            RaBitQ(RaBitQConfig(seed=0)).fit(data, rotation=QRRotation(32, 0))

    def test_deterministic_given_seed(self, data_and_query):
        data, _ = data_and_query
        a = RaBitQ(RaBitQConfig(seed=9)).fit(data).arena.codes
        b = RaBitQ(RaBitQConfig(seed=9)).fit(data).arena.codes
        np.testing.assert_array_equal(a, b)

    def test_hadamard_rotation_config(self, data_and_query):
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0, rotation="hadamard")).fit(data)
        estimate = quantizer.estimate_distances(query)
        true = ((data - query) ** 2).sum(axis=1)
        rel = np.abs(estimate.distances - true) / true
        assert rel.mean() < 0.25

    def test_memory_accounting(self, data_and_query):
        data, _ = data_and_query
        arena = RaBitQ(RaBitQConfig(seed=0)).fit(data).arena
        assert arena.memory_bytes() > 0
        # 400 codes x 8 bytes plus per-vector floats must dominate the total.
        assert arena.memory_bytes() >= 400 * 8


class TestEstimateDistances:
    @pytest.mark.parametrize("compute", COMPUTE_MODES)
    def test_accuracy_all_paths(self, data_and_query, compute):
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        estimate = quantizer.estimate_distances(query, compute=compute)
        true = ((data - query) ** 2).sum(axis=1)
        rel = np.abs(estimate.distances - true) / true
        assert rel.mean() < 0.15

    def test_bounds_cover_true_distance_mostly(self, data_and_query):
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        estimate = quantizer.estimate_distances(query, compute="float")
        true = ((data - query) ** 2).sum(axis=1)
        covered = (true >= estimate.lower_bounds) & (true <= estimate.upper_bounds)
        # epsilon_0 = 1.9 corresponds to roughly 94% two-sided coverage.
        assert covered.mean() > 0.85

    def test_subset_estimation(self, data_and_query):
        # Use a single prepared query so the randomized query quantization is
        # shared between the full and the subset estimation.
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        subset = np.array([3, 17, 200])
        prepared = quantizer.prepare_query(query)
        full = quantizer.estimate_distances(prepared)
        partial = quantizer.estimate_distances(prepared, subset=subset)
        np.testing.assert_allclose(partial.distances, full.distances[subset])

    def test_prepared_query_reuse(self, data_and_query):
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        prepared = quantizer.prepare_query(query)
        a = quantizer.estimate_distances(prepared)
        b = quantizer.estimate_distances(prepared)
        np.testing.assert_allclose(a.distances, b.distances)

    def test_invalid_compute_mode(self, data_and_query):
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        with pytest.raises(InvalidParameterError):
            quantizer.estimate_distances(query, compute="simd")

    def test_query_dim_mismatch(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        with pytest.raises(DimensionMismatchError):
            quantizer.estimate_distances(np.zeros(61))

    def test_epsilon_override_widens_bounds(self, data_and_query):
        data, query = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        narrow = quantizer.estimate_distances(query, epsilon0=0.5)
        wide = quantizer.estimate_distances(query, epsilon0=3.0)
        assert (wide.upper_bounds - wide.lower_bounds >= narrow.upper_bounds - narrow.lower_bounds - 1e-9).all()

    @pytest.mark.parametrize("subset", [None, np.array([7, 2, 2, 40, 0])])
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    @pytest.mark.parametrize("bits", [1, 4])
    @pytest.mark.parametrize("epsilon0", [0.0, 0.5, 1.9, 3.0])
    def test_epsilon_override_equals_a_fit_at_that_epsilon(
        self, data_and_query, epsilon0, bits, metric, subset
    ):
        # The override rewrites the half-width row with the call the fit
        # makes, so every field matches a quantizer fitted at that epsilon0.
        data, query = data_and_query
        config = RaBitQConfig(seed=11, bits=bits)
        quantizer = RaBitQ(config, metric=metric).fit(data)
        refit = RaBitQ(config.with_overrides(epsilon0=epsilon0), metric=metric)
        refit.fit(data)
        got = quantizer.estimate_distances(query, subset=subset, epsilon0=epsilon0)
        want = refit.estimate_distances(query, subset=subset)
        for name in ("distances", "lower_bounds", "upper_bounds", "inner_products"):
            np.testing.assert_array_equal(
                getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)
            )

    def test_estimation_unbiased_over_rotations(self):
        # Average the estimator over independently seeded quantizers: the
        # mean estimate should approach the true distance (Theorem 3.2).
        rng = np.random.default_rng(0)
        data = rng.standard_normal((50, 32))
        query = rng.standard_normal(32)
        true = ((data - query) ** 2).sum(axis=1)
        acc = np.zeros(50)
        repeats = 30
        for seed in range(repeats):
            quantizer = RaBitQ(RaBitQConfig(seed=seed)).fit(data)
            acc += quantizer.estimate_distances(query, compute="float").distances
        mean_estimate = acc / repeats
        rel_bias = np.abs(mean_estimate - true) / true
        # The residual bias after 30 rotations should be well below the
        # typical single-shot error (~8% at D=64).
        assert rel_bias.mean() < 0.03


class TestIntrospection:
    def test_reconstruct_unit_norm(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        reconstruction = quantizer.reconstruct()
        np.testing.assert_allclose(
            np.linalg.norm(reconstruction, axis=1), 1.0, atol=1e-9
        )

    def test_reconstruct_subset(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        subset = quantizer.reconstruct(np.array([0, 5]))
        assert subset.shape == (2, quantizer.code_length)

    def test_code_bits_shape(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        bits = quantizer.code_bits()
        assert bits.shape == (400, 64)
        assert set(np.unique(bits)) <= {0, 1}

    def test_alignment_matches_reconstruction(self, data_and_query):
        # <o_bar, o> stored at fit time must equal the dot product between
        # the reconstruction and the normalized (padded) data vector.
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        units = normalize_rows(data - quantizer.centroid)
        padded = pad_vectors(units, quantizer.code_length)
        reconstruction = quantizer.reconstruct()
        recomputed = np.einsum("ij,ij->i", reconstruction, padded)
        np.testing.assert_allclose(
            recomputed, quantizer.arena.cluster_consts(0)[CONST_ALIGN], atol=1e-9
        )

    def test_compression_ratio(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        assert quantizer.compression_ratio() == pytest.approx(32 * 60 / 64)

    def test_is_fitted_flag(self, data_and_query):
        data, _ = data_and_query
        quantizer = RaBitQ(RaBitQConfig(seed=0))
        assert not quantizer.is_fitted
        quantizer.fit(data)
        assert quantizer.is_fitted
