"""Tests for repro.substrates.kmeans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EmptyDatasetError, InvalidParameterError, NotFittedError
from repro.substrates.kmeans import KMeans, kmeans_fit


def _blob_data(rng: np.random.Generator, n_per_cluster: int = 50) -> np.ndarray:
    """Three well-separated clusters in 2-D."""
    centres = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    points = [
        centre + 0.5 * rng.standard_normal((n_per_cluster, 2)) for centre in centres
    ]
    return np.vstack(points)


class TestKMeansFit:
    def test_output_shapes(self, rng):
        data = _blob_data(rng)
        result = kmeans_fit(data, 3, rng=0)
        assert result.centroids.shape == (3, 2)
        assert result.assignments.shape == (data.shape[0],)

    def test_recovers_separated_clusters(self, rng):
        data = _blob_data(rng)
        result = kmeans_fit(data, 3, rng=0)
        # Each true cluster should map to exactly one predicted cluster.
        labels = [set(result.assignments[i * 50 : (i + 1) * 50]) for i in range(3)]
        assert all(len(group) == 1 for group in labels)
        assert len(set.union(*labels)) == 3

    def test_inertia_decreases_with_more_clusters(self, rng):
        data = _blob_data(rng)
        few = kmeans_fit(data, 2, rng=0).inertia
        many = kmeans_fit(data, 6, rng=0).inertia
        assert many <= few

    def test_single_cluster_centroid_is_mean(self, rng):
        data = rng.standard_normal((40, 3))
        result = kmeans_fit(data, 1, rng=0)
        np.testing.assert_allclose(result.centroids[0], data.mean(axis=0), atol=1e-9)

    def test_n_clusters_equal_n_points(self, rng):
        data = rng.standard_normal((5, 2))
        result = kmeans_fit(data, 5, rng=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_with_seed(self, rng):
        data = _blob_data(rng)
        a = kmeans_fit(data, 3, rng=42)
        b = kmeans_fit(data, 3, rng=42)
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_empty_data_raises(self):
        with pytest.raises(EmptyDatasetError):
            kmeans_fit(np.empty((0, 3)), 2)

    def test_too_many_clusters_raises(self, rng):
        with pytest.raises(InvalidParameterError):
            kmeans_fit(rng.standard_normal((4, 2)), 5)

    def test_invalid_cluster_count(self, rng):
        with pytest.raises(InvalidParameterError):
            kmeans_fit(rng.standard_normal((4, 2)), 0)

    def test_invalid_max_iter(self, rng):
        with pytest.raises(InvalidParameterError):
            kmeans_fit(rng.standard_normal((4, 2)), 2, max_iter=0)

    def test_duplicate_points(self):
        data = np.ones((30, 4))
        result = kmeans_fit(data, 3, rng=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)


class TestKMeansClass:
    def test_transform_shape(self, rng):
        data = _blob_data(rng)
        model = KMeans(3, rng=0).fit(data)
        assert model.transform(data[:10]).shape == (10, 3)

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            KMeans(2).centroids

    def test_is_fitted_flag(self, rng):
        model = KMeans(2, rng=0)
        assert not model.is_fitted
        model.fit(rng.standard_normal((10, 2)))
        assert model.is_fitted

    def test_invalid_n_clusters(self):
        with pytest.raises(InvalidParameterError):
            KMeans(0)


class TestChunkedAssign:
    """The E-step streams row chunks above the large-problem threshold."""

    def test_chunked_assign_matches_full(self, monkeypatch):
        import repro.substrates.kmeans as km

        rng = np.random.default_rng(0)
        data = rng.standard_normal((257, 6))
        centroids = rng.standard_normal((9, 6))
        full = km._assign(data, centroids)
        # Force the streaming path with an uneven chunk size; assignments
        # and best-distances must agree with the single-shot computation
        # (per-row arithmetic is the same; only temp sizes change).
        monkeypatch.setattr(km, "_ASSIGN_FULL_ENTRIES", 0)
        monkeypatch.setattr(km, "_ASSIGN_CHUNK_ENTRIES", 9 * 100)
        chunked = km._assign(data, centroids)
        np.testing.assert_array_equal(full[0], chunked[0])
        np.testing.assert_allclose(full[1], chunked[1], rtol=0, atol=1e-12)

    def test_kmeans_fit_under_forced_chunking(self, monkeypatch):
        import repro.substrates.kmeans as km

        rng = np.random.default_rng(1)
        data = rng.standard_normal((120, 4))
        baseline = kmeans_fit(data, 5, rng=3)
        monkeypatch.setattr(km, "_ASSIGN_FULL_ENTRIES", 0)
        monkeypatch.setattr(km, "_ASSIGN_CHUNK_ENTRIES", 5 * 32)
        chunked = kmeans_fit(data, 5, rng=3)
        np.testing.assert_array_equal(baseline.assignments, chunked.assignments)
        np.testing.assert_allclose(
            baseline.centroids, chunked.centroids, rtol=0, atol=1e-12
        )
