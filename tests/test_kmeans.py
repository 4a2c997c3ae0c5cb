"""Tests for repro.substrates.kmeans."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.substrates.kmeans as km
from repro.exceptions import EmptyDatasetError, InvalidParameterError, NotFittedError
from repro.substrates.kmeans import KMeans, kmeans_fit
from repro.substrates.linalg import pairwise_squared_distances

_DATA_DIR = Path(__file__).resolve().parent / "data"
_FIXTURE = json.loads((_DATA_DIR / "kmeans_gate.json").read_text())

# The generator module owns the cases; the test recomputes exactly what it
# would write, so the two cannot drift.
_spec = importlib.util.spec_from_file_location(
    "gen_kmeans_gate", _DATA_DIR / "gen_kmeans_gate.py"
)
_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gate)


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
        rng = np.random.default_rng(0)
        data = rng.standard_normal((257, 6))
        centroids = rng.standard_normal((9, 6))
        full = km._Assigner(data, 9)(centroids)
        # Force the streaming path with an uneven chunk size; assignments
        # and best-distances must agree with the single-shot computation
        # (per-row arithmetic is the same; only temp sizes change).
        monkeypatch.setattr(km, "_ASSIGN_FULL_ENTRIES", 0)
        monkeypatch.setattr(km, "_ASSIGN_CHUNK_ENTRIES", 9 * 100)
        chunked = km._Assigner(data, 9)(centroids)
        np.testing.assert_array_equal(full[0], chunked[0])
        np.testing.assert_allclose(full[1], chunked[1], rtol=0, atol=1e-12)

    def test_kmeans_fit_under_forced_chunking(self, monkeypatch):
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


class TestBitIdentityGate:
    """KMeans reproduces ``kmeans_gate.json`` (written by ``d4c2aba``) exactly."""

    def test_fixture_covers_every_case(self):
        assert _FIXTURE["writer_commit"] == _gate.WRITER_COMMIT
        assert sorted(_FIXTURE["cases"]) == sorted(_gate.CASES)

    @pytest.mark.parametrize("name", sorted(_gate.CASES))
    def test_case_matches_fixture(self, name):
        assert _gate.digest(*_gate.CASES[name]()) == _FIXTURE["cases"][name]

    @pytest.mark.parametrize(
        "name",
        [
            "mixture_300x8_k7_seed0",
            "gaussian_300x1_k6",
            "reseed_40x3_k7",
            "chunked_500x16_k9",
            "ivf_3000x32_sample1000",
        ],
    )
    def test_epilogue_block_size_moves_no_bit(self, name, monkeypatch):
        # Blocks of 1 to 7 rows, ragged at every chunk's end.
        monkeypatch.setattr(km, "_EPILOGUE_ENTRIES", 45)
        assert _gate.digest(*_gate.CASES[name]()) == _FIXTURE["cases"][name]

    def test_reseed_case_empties_clusters(self, monkeypatch):
        empty_counts = []
        update = km._update_centroids

        def spy(points, assignments, best, centroids):
            counts = np.bincount(assignments, minlength=centroids.shape[0])
            empty_counts.append(int((counts == 0).sum()))
            update(points, assignments, best, centroids)

        monkeypatch.setattr(km, "_update_centroids", spy)
        _gate.CASES["reseed_40x3_k7"]()
        assert any(empty_counts)


class TestUpdateStep:
    @given(
        data=st.data(),
        n=st.integers(1, 80),
        dim=st.integers(1, 6),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        fortran=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_per_cluster_scan(self, data, n, dim, k, seed, fortran):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        if fortran:
            points = np.asfortranarray(points)
        # Drawn ids leave clusters empty; few distinct ``best`` values tie.
        used = data.draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
        picks = data.draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
        assignments = np.asarray(picks, dtype=np.intp)
        ties = st.sampled_from([0.0, 1.5, 2.0])
        best = np.asarray(data.draw(st.lists(ties, min_size=n, max_size=n)))
        centroids = rng.standard_normal((k, dim))
        got_best = best.copy()
        km._update_centroids(points, assignments, got_best, centroids)

        # Each centroid is the mean of its members as a boolean scan gathers
        # them; empty clusters, in id order, take argmax(best) and zero it.
        for cluster_id in range(k):
            members = points[assignments == cluster_id]
            if members.shape[0] > 0:
                want = members.mean(axis=0)
            else:
                farthest = int(np.argmax(best))
                best[farthest] = 0.0
                want = points[farthest]
            assert centroids[cluster_id].tobytes() == want.tobytes(), cluster_id
        np.testing.assert_array_equal(got_best, best)


class TestEStep:
    @given(
        n=st.integers(1, 90),
        dim=st.integers(1, 6),
        k=st.integers(1, 10),
        chunk=st.one_of(st.none(), st.integers(1, 40)),
        block_rows=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_pairwise_distances_per_gemm_chunk(
        self, n, dim, k, chunk, block_rows, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim))
        # Centroids on data rows (cancellation, clipped zeros) and repeated
        # centroids (argmin ties) beside free ones.
        centroids = rng.standard_normal((k, dim))
        centroids[: k // 2] = data[rng.integers(n, size=k // 2)]
        centroids[k - 1] = centroids[0]
        rows = n if chunk is None else chunk
        patches = {"_EPILOGUE_ENTRIES": block_rows * k}
        if chunk is not None:
            patches.update(_ASSIGN_FULL_ENTRIES=0, _ASSIGN_CHUNK_ENTRIES=chunk * k)
        with mock.patch.multiple(km, **patches):
            assignments, best = km._Assigner(data, k)(centroids)
        for lo in range(0, n, rows):
            dists = pairwise_squared_distances(data[lo : lo + rows], centroids)
            want = np.argmin(dists, axis=1)
            np.testing.assert_array_equal(assignments[lo : lo + rows], want)
            np.testing.assert_array_equal(
                best[lo : lo + rows].view(np.int64),
                dists[np.arange(want.shape[0]), want].view(np.int64),
            )
