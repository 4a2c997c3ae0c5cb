"""Tests for repro.index.flat and repro.index.ivf."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.index.flat import FlatIndex
from repro.index.ivf import STAT_KEY_EVALS, IVFIndex, default_n_clusters
from repro.index.searcher import IVFQuantizedSearcher
from repro.substrates.linalg import squared_distances_to_points


@pytest.fixture(scope="module")
def flat_data():
    rng = np.random.default_rng(2)
    return rng.standard_normal((200, 16)), rng.standard_normal(16)


class TestFlatIndex:
    def test_search_returns_sorted_distances(self, flat_data):
        data, query = flat_data
        ids, dists = FlatIndex(data).search(query, 10)
        assert ids.shape == (10,)
        assert (np.diff(dists) >= 0).all()

    def test_search_matches_naive(self, flat_data):
        data, query = flat_data
        ids, dists = FlatIndex(data).search(query, 5)
        true = ((data - query) ** 2).sum(axis=1)
        expected_ids = np.argsort(true)[:5]
        np.testing.assert_array_equal(np.sort(ids), np.sort(expected_ids))
        np.testing.assert_allclose(dists, np.sort(true)[:5], atol=1e-9)

    def test_k_larger_than_dataset(self, flat_data):
        data, query = flat_data
        ids, _ = FlatIndex(data).search(query, 10_000)
        assert ids.shape == (200,)

    def test_distances_subset(self, flat_data):
        data, query = flat_data
        index = FlatIndex(data)
        subset = np.array([3, 7, 11])
        np.testing.assert_allclose(
            index.distances(query, subset),
            ((data[subset] - query) ** 2).sum(axis=1),
            atol=1e-9,
        )

    def test_rerank_selects_best_candidates(self, flat_data):
        data, query = flat_data
        index = FlatIndex(data)
        candidates = np.arange(50)
        ids, dists = index.rerank(query, candidates, 5)
        true = ((data[:50] - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(dists, np.sort(true)[:5], atol=1e-9)
        assert set(ids).issubset(set(range(50)))

    def test_rerank_empty_candidates(self, flat_data):
        data, query = flat_data
        ids, dists = FlatIndex(data).rerank(query, np.empty(0, dtype=np.int64), 5)
        assert ids.size == 0 and dists.size == 0

    def test_search_batch_matches_search(self, flat_data):
        data, query = flat_data
        rng = np.random.default_rng(4)
        queries = np.vstack([query, rng.standard_normal((5, 16))])
        index = FlatIndex(data)
        ids_list, dists_list = index.search_batch(queries, 7)
        assert len(ids_list) == 6
        for i in range(6):
            want_ids, want_dists = index.search(queries[i], 7)
            np.testing.assert_array_equal(ids_list[i], want_ids)
            np.testing.assert_array_equal(dists_list[i], want_dists)

    def test_search_batch_chunking_matches(self, flat_data, monkeypatch):
        import repro.substrates.linalg as linalg_module

        data, _ = flat_data
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((9, 16))
        index = FlatIndex(data)
        full = index.search_batch(queries, 4)
        # Force a tiny chunk so several chunks are exercised.
        monkeypatch.setattr(linalg_module, "_DIST_BATCH_MAX_CELLS", 1)
        chunked = index.search_batch(queries, 4)
        for a, b in zip(full[0], chunked[0]):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(full[1], chunked[1]):
            np.testing.assert_array_equal(a, b)

    def test_rerank_batch_matches_rerank(self, flat_data):
        data, query = flat_data
        rng = np.random.default_rng(6)
        queries = np.vstack([query, rng.standard_normal(16)])
        candidates = [np.arange(30, dtype=np.int64), np.arange(50, 90, dtype=np.int64)]
        index = FlatIndex(data)
        ids_list, dists_list = index.rerank_batch(queries, candidates, 5)
        for i in range(2):
            want_ids, want_dists = index.rerank(queries[i], candidates[i], 5)
            np.testing.assert_array_equal(ids_list[i], want_ids)
            np.testing.assert_array_equal(dists_list[i], want_dists)

    def test_rerank_batch_length_mismatch(self, flat_data):
        data, query = flat_data
        with pytest.raises(DimensionMismatchError):
            FlatIndex(data).rerank_batch(
                np.vstack([query, query]), [np.arange(3)], 2
            )

    def test_len_and_dim(self, flat_data):
        data, _ = flat_data
        index = FlatIndex(data)
        assert len(index) == 200
        assert index.dim == 16

    def test_invalid_k(self, flat_data):
        data, query = flat_data
        with pytest.raises(InvalidParameterError):
            FlatIndex(data).search(query, 0)

    def test_query_dim_mismatch(self, flat_data):
        data, _ = flat_data
        with pytest.raises(DimensionMismatchError):
            FlatIndex(data).search(np.zeros(17), 3)

    def test_empty_data(self):
        with pytest.raises(EmptyDatasetError):
            FlatIndex(np.empty((0, 4)))


class TestDefaultNClusters:
    def test_scaling(self):
        assert default_n_clusters(100) <= 100
        assert default_n_clusters(1_000_000) == 4000
        assert default_n_clusters(10_000_000) == 4096

    def test_small_dataset(self):
        assert default_n_clusters(5) <= 5

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            default_n_clusters(0)


class TestIVFIndex:
    def test_buckets_partition_dataset(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        all_ids = np.concatenate([bucket.vector_ids for bucket in index.buckets])
        assert sorted(all_ids.tolist()) == list(range(200))

    def test_probe_returns_nearest_centroids(self, flat_data):
        data, query = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        probed = index.probe(query, 3)
        dists = ((index.centroids - query) ** 2).sum(axis=1)
        expected = np.argsort(dists)[:3]
        np.testing.assert_array_equal(np.sort(probed), np.sort(expected))

    def test_probe_ordering(self, flat_data):
        data, query = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        probed = index.probe(query, 4)
        dists = ((index.centroids[probed] - query) ** 2).sum(axis=1)
        assert (np.diff(dists) >= 0).all()

    def test_candidates_grow_with_nprobe(self, flat_data):
        data, query = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        few = index.candidates(query, 1)
        many = index.candidates(query, 8)
        assert many.shape[0] >= few.shape[0]
        assert many.shape[0] == 200  # probing all clusters covers everything

    def test_assignments_match_buckets(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        for bucket in index.buckets:
            assert (index.assignments[bucket.vector_ids] == bucket.centroid_id).all()

    def test_default_cluster_count_applied(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(rng=0).fit(data)
        assert len(index.buckets) == default_n_clusters(200)

    def test_nprobe_validation(self, flat_data):
        data, query = flat_data
        index = IVFIndex(4, rng=0).fit(data)
        with pytest.raises(InvalidParameterError):
            index.probe(query, 0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            IVFIndex(4).centroids

    def test_empty_data(self):
        with pytest.raises(EmptyDatasetError):
            IVFIndex(4).fit(np.empty((0, 4)))

    def test_invalid_cluster_count(self):
        with pytest.raises(InvalidParameterError):
            IVFIndex(0)

    def test_query_dim_mismatch(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(4, rng=0).fit(data)
        with pytest.raises(DimensionMismatchError):
            index.probe(np.zeros(17), 1)


class TestFlatIndexMutation:
    def test_add_appends_rows_and_returns_slots(self, flat_data):
        data, query = flat_data
        index = FlatIndex(data)
        extra = np.random.default_rng(3).standard_normal((30, 16))
        slots = index.add(extra)
        np.testing.assert_array_equal(slots, np.arange(200, 230))
        assert len(index) == 230
        np.testing.assert_array_equal(index.data[200:], extra)
        # Existing rows and their exact distances are untouched.
        np.testing.assert_array_equal(index.data[:200], data)

    def test_add_many_small_batches(self, flat_data):
        data, _ = flat_data
        index = FlatIndex(data)
        rng = np.random.default_rng(4)
        rows = [rng.standard_normal(16) for _ in range(25)]
        for row in rows:
            index.add(row)
        assert len(index) == 225
        np.testing.assert_array_equal(index.data[200:], np.asarray(rows))

    def test_add_empty_is_noop(self, flat_data):
        data, _ = flat_data
        index = FlatIndex(data)
        assert index.add(np.empty((0, 16))).shape == (0,)
        assert len(index) == 200

    def test_add_dimension_mismatch(self, flat_data):
        data, _ = flat_data
        with pytest.raises(DimensionMismatchError):
            FlatIndex(data).add(np.zeros((2, 5)))

    def test_keep_rows_drops_and_preserves_order(self, flat_data):
        data, query = flat_data
        index = FlatIndex(data)
        keep = np.ones(200, dtype=bool)
        keep[::3] = False
        index.keep_rows(keep)
        assert len(index) == int(keep.sum())
        np.testing.assert_array_equal(index.data, data[keep])

    def test_keep_rows_mask_length_checked(self, flat_data):
        data, _ = flat_data
        with pytest.raises(DimensionMismatchError):
            FlatIndex(data).keep_rows(np.ones(3, dtype=bool))

    def test_allow_empty_construction(self):
        index = FlatIndex(np.empty((0, 8)), allow_empty=True)
        assert len(index) == 0
        with pytest.raises(EmptyDatasetError):
            FlatIndex(np.empty((0, 8)))


class TestIVFIndexMutation:
    def test_assign_matches_fit_assignments(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        # Re-assigning the training data reproduces the kmeans assignment
        # (Lloyd terminates with points attached to their nearest centroid).
        np.testing.assert_array_equal(index.assign(data), index.assignments)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clusters=st.integers(1, 40),
        dim=st.integers(1, 40),
        integral=st.booleans(),
    )
    def test_assign_is_the_exact_argmin(self, seed, n_clusters, dim, integral):
        """``assign`` ≡ ``argmin`` of the broadcast-difference keys, bit for bit."""
        rng = np.random.default_rng(seed)
        if integral:  # midpoints are then exact, and so are their ties
            centroids = rng.integers(-3, 4, size=(n_clusters, dim)).astype(float)
        else:
            centroids = rng.standard_normal((n_clusters, dim)) * rng.uniform(0.1, 100)
        index = IVFIndex.from_state(centroids, np.empty(0, dtype=np.int64))
        i, j = rng.integers(0, n_clusters, size=(2, 30))
        midpoints = (centroids[i] + centroids[j]) / 2
        rows = np.concatenate(
            [
                rng.standard_normal((30, dim)) * 3,
                midpoints,
                midpoints + rng.standard_normal(midpoints.shape) * 1e-13,
                centroids[rng.integers(0, n_clusters, size=1)],
                rng.standard_normal((10, dim)) * 1e6,
            ]
        )
        for block in (rows, rows[:1], rows[:0]):
            want = np.argmin(squared_distances_to_points(centroids, block), axis=1)
            got = index.assign(block)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_append_extends_buckets_in_order(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        extra = np.random.default_rng(5).standard_normal((20, 16))
        clusters = index.assign(extra)
        index.append(np.arange(200, 220), clusters)
        assert index.assignments.shape == (220,)
        for bucket in index.buckets:
            # The sorted-ascending invariant the persistence layer relies on.
            assert (np.diff(bucket.vector_ids) > 0).all()
        np.testing.assert_array_equal(index.assignments[200:], clusters)

    def test_append_rejects_non_contiguous_ids(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        with pytest.raises(InvalidParameterError):
            index.append(np.array([150]), np.array([0]))  # id already stored
        with pytest.raises(InvalidParameterError):
            index.append(np.array([201, 200]), np.array([0, 0]))  # out of order
        with pytest.raises(InvalidParameterError):
            index.append(np.array([205]), np.array([0]))  # gap after 199
        with pytest.raises(InvalidParameterError):
            index.append(np.array([200, 202]), np.array([0, 0]))  # internal gap

    def test_keep_rows_remaps_ids(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        keep = np.ones(200, dtype=bool)
        keep[50:100] = False
        expected = index.assignments[keep]
        index.keep_rows(keep)
        np.testing.assert_array_equal(index.assignments, expected)
        sizes = sum(len(bucket) for bucket in index.buckets)
        assert sizes == 150
        for bucket in index.buckets:
            if len(bucket):
                assert bucket.vector_ids.max() < 150

    def test_from_state_roundtrip(self, flat_data):
        data, query = flat_data
        index = IVFIndex(8, rng=0).fit(data)
        rebuilt = IVFIndex.from_state(index.centroids, index.assignments)
        np.testing.assert_array_equal(
            rebuilt.probe(query, 4), index.probe(query, 4)
        )
        for got, want in zip(rebuilt.buckets, index.buckets):
            np.testing.assert_array_equal(got.vector_ids, want.vector_ids)

    def test_from_state_rejects_bad_assignments(self, flat_data):
        data, _ = flat_data
        index = IVFIndex(4, rng=0).fit(data)
        with pytest.raises(InvalidParameterError):
            IVFIndex.from_state(index.centroids, np.array([0, 99]))


class TestProbeCacheInvalidation:
    def test_refit_invalidates_cached_centroid_norms(self):
        # The GEMV probe kernel caches |c|^2 per centroid; re-fitting the
        # index must invalidate that cache or probes silently use stale
        # norms (regression test).
        rng = np.random.default_rng(5)
        first = rng.standard_normal((120, 6))
        second = rng.standard_normal((120, 6)) + 3.0
        query = rng.standard_normal(6)
        index = IVFIndex(8, rng=0).fit(first)
        index.probe(query, 3)  # populates the cache
        index.fit(second)
        probed = index.probe(query, 3)
        dists = ((index.centroids - query) ** 2).sum(axis=1)
        expected = np.argsort(dists)[:3]
        np.testing.assert_array_equal(np.sort(probed), np.sort(expected))

    def test_norm_cache_installed_eagerly_with_centroids(self, flat_data):
        # Every path that installs centroids computes the |c|^2 cache in
        # the same step (fit and from_state), so a stale cache is
        # unrepresentable and concurrent probing is a pure read.
        data, _ = flat_data
        fitted = IVFIndex(4, rng=0).fit(data)
        np.testing.assert_array_equal(
            fitted._centroid_sq,
            np.einsum("ij,ij->i", fitted.centroids, fitted.centroids),
        )
        restored = IVFIndex.from_state(fitted.centroids, fitted.assignments)
        np.testing.assert_array_equal(
            restored._centroid_sq,
            np.einsum("ij,ij->i", restored.centroids, restored.centroids),
        )

    def test_from_state_probes_match_fitted_index(self, flat_data):
        # A from_state reconstruction must probe exactly like the index it
        # was saved from: same centroid distances, same cluster ranking
        # (would fail if reconstruction could pair new centroids with a
        # surviving stale norm cache).
        data, _ = flat_data
        queries = np.random.default_rng(12).standard_normal((6, 16))
        fitted = IVFIndex(6, rng=1).fit(data)
        fitted.probe(queries[0], 2)  # populate the fitted index's cache
        restored = IVFIndex.from_state(fitted.centroids, fitted.assignments)
        for query in queries:
            np.testing.assert_array_equal(
                restored.probe(query, 4), fitted.probe(query, 4)
            )
        np.testing.assert_array_equal(
            restored.probe_batch(queries, 4), fitted.probe_batch(queries, 4)
        )


@pytest.fixture(scope="module")
def clustered_ivf():
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((8, 16)) * 3.0
    data = centers[rng.integers(0, 8, size=1200)] + rng.standard_normal(
        (1200, 16)
    )
    queries = centers[rng.integers(0, 8, size=25)] + rng.standard_normal(
        (25, 16)
    )
    return data, queries, IVFIndex(40, rng=0).fit(data)


class TestProbeMetric:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_probe_batch_matches_probe(self, clustered_ivf, metric):
        _, queries, ivf = clustered_ivf
        batch = ivf.probe_batch(queries, 6, metric=metric)
        for i, query in enumerate(queries):
            np.testing.assert_array_equal(
                batch[i], ivf.probe(query, 6, metric=metric)
            )

    def test_stats_count_every_centroid_key(self, clustered_ivf):
        _, queries, ivf = clustered_ivf
        stats: dict = {}
        ivf.probe(queries[0], 4, stats=stats)
        assert stats[STAT_KEY_EVALS] == ivf.centroids.shape[0]
        ivf.probe_batch(queries[:3], 4, stats=stats)
        assert stats[STAT_KEY_EVALS] == 4 * ivf.centroids.shape[0]

    def test_candidates_follow_metric(self, clustered_ivf):
        _, queries, ivf = clustered_ivf
        # Regression: candidates() used to probe under L2 regardless of the
        # metric argument.  It must enumerate exactly the probed clusters
        # of the requested metric.
        for metric in ("l2", "ip", "cosine"):
            probed = ivf.probe(queries[0], 4, metric=metric)
            expected = np.concatenate(
                [ivf.buckets[c].vector_ids for c in probed]
            )
            got = ivf.candidates(queries[0], 4, metric=metric)
            np.testing.assert_array_equal(got, expected)

    def test_ip_candidates_differ_from_l2(self, clustered_ivf):
        _, queries, ivf = clustered_ivf
        assert any(
            not np.array_equal(
                ivf.candidates(q, 2, metric="ip"),
                ivf.candidates(q, 2, metric="l2"),
            )
            for q in queries
        )


class TestSampledKMeans:
    def test_kmeans_sample_size_fit(self, clustered_ivf):
        data, queries, _ = clustered_ivf
        ivf = IVFIndex(12, rng=0).fit(data, kmeans_sample_size=300)
        assert ivf.centroids.shape == (12, data.shape[1])
        assert ivf.assignments.shape[0] == data.shape[0]
        assert sum(len(b) for b in ivf.buckets) == data.shape[0]
        assert ivf.probe(queries[0], 3).shape == (3,)

    def test_sample_covering_all_rows_matches_plain_fit(self, clustered_ivf):
        data, _, _ = clustered_ivf
        plain = IVFIndex(12, rng=0).fit(data)
        sampled = IVFIndex(12, rng=0).fit(
            data, kmeans_sample_size=data.shape[0]
        )
        np.testing.assert_array_equal(plain.centroids, sampled.centroids)
        np.testing.assert_array_equal(plain.assignments, sampled.assignments)

    def test_searcher_forwards_sample_size(self, clustered_ivf):
        data, queries, _ = clustered_ivf
        searcher = IVFQuantizedSearcher("rabitq", n_clusters=12, rng=0).fit(
            data, kmeans_sample_size=300
        )
        assert searcher.search(queries[0], 5, nprobe=4).ids.shape[0] == 5

    def test_invalid_sample_size(self, clustered_ivf):
        data, _, _ = clustered_ivf
        with pytest.raises(InvalidParameterError):
            IVFIndex(12, rng=0).fit(data, kmeans_sample_size=0)
