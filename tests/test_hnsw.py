"""Tests for repro.baselines.hnsw."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metric import resolve_metric
from repro.datasets.ground_truth import brute_force_ground_truth
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.baselines.hnsw import STAT_KEY_EVALS, HNSWIndex
from repro.metrics.recall import recall_at_k


@pytest.fixture(scope="module")
def hnsw_setup():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((600, 24))
    queries = rng.standard_normal((15, 24))
    index = HNSWIndex(m=8, ef_construction=60, rng=0).fit(data)
    return data, queries, index


class TestConstruction:
    def test_indexes_all_points(self, hnsw_setup):
        data, _, index = hnsw_setup
        assert len(index) == 600
        # Every point must appear on layer 0.
        assert len(index._layers[0]) == 600

    def test_degree_bounded(self, hnsw_setup):
        _, _, index = hnsw_setup
        assert max(len(v) for v in index._layers[0].values()) <= 2 * 8
        assert len(index._layers) >= 1

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            HNSWIndex(m=0)
        with pytest.raises(InvalidParameterError):
            HNSWIndex(m=4, ef_construction=0)

    def test_m1_raises(self):
        # Regression: m=1 used to crash with ZeroDivisionError in the level
        # draw (1/ln(1)); it must be rejected up front like m=0.
        with pytest.raises(InvalidParameterError, match="at least 2"):
            HNSWIndex(m=1)
        with pytest.raises(InvalidParameterError):
            HNSWIndex(m=-3)

    def test_empty_data(self):
        with pytest.raises(EmptyDatasetError):
            HNSWIndex().fit(np.empty((0, 4)))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            HNSWIndex().search(np.zeros(4), 1)


class TestSearch:
    def test_returns_sorted_results(self, hnsw_setup):
        _, queries, index = hnsw_setup
        ids, dists = index.search(queries[0], 10, ef_search=50)
        assert ids.shape[0] <= 10
        assert (np.diff(dists) >= 0).all()

    def test_high_recall_with_large_ef(self, hnsw_setup):
        data, queries, index = hnsw_setup
        ground_truth = brute_force_ground_truth(data, queries, 10)
        retrieved = [index.search(q, 10, ef_search=150)[0] for q in queries]
        assert recall_at_k(retrieved, ground_truth, 10) >= 0.9

    def test_recall_improves_with_ef(self, hnsw_setup):
        data, queries, index = hnsw_setup
        ground_truth = brute_force_ground_truth(data, queries, 10)
        low = recall_at_k(
            [index.search(q, 10, ef_search=10)[0] for q in queries], ground_truth, 10
        )
        high = recall_at_k(
            [index.search(q, 10, ef_search=200)[0] for q in queries], ground_truth, 10
        )
        assert high >= low

    def test_query_in_dataset_found(self, hnsw_setup):
        data, _, index = hnsw_setup
        ids, dists = index.search(data[42], 1, ef_search=80)
        assert 42 in ids.tolist() or dists[0] < 1e-9

    def test_distances_are_exact(self, hnsw_setup):
        data, queries, index = hnsw_setup
        ids, dists = index.search(queries[0], 5, ef_search=50)
        expected = ((data[ids] - queries[0]) ** 2).sum(axis=1)
        np.testing.assert_allclose(dists, expected, atol=1e-9)

    def test_invalid_k(self, hnsw_setup):
        _, queries, index = hnsw_setup
        with pytest.raises(InvalidParameterError):
            index.search(queries[0], 0)

    def test_query_dim_mismatch(self, hnsw_setup):
        _, _, index = hnsw_setup
        with pytest.raises(DimensionMismatchError):
            index.search(np.zeros(25), 3)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((150, 8))
        query = rng.standard_normal(8)
        a = HNSWIndex(m=6, ef_construction=40, rng=5).fit(data).search(query, 5)[0]
        b = HNSWIndex(m=6, ef_construction=40, rng=5).fit(data).search(query, 5)[0]
        np.testing.assert_array_equal(a, b)

class TestDegenerateShapes:
    def test_k_exceeds_index_size(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((7, 5))
        index = HNSWIndex(m=4, ef_construction=20, rng=0).fit(data)
        ids, dists = index.search(rng.standard_normal(5), 50)
        assert sorted(ids.tolist()) == list(range(7))
        assert (np.diff(dists) >= 0).all()

    def test_batch_k_exceeds_index_size_shapes(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((6, 4))
        queries = rng.standard_normal((3, 4))
        index = HNSWIndex(m=4, ef_construction=20, rng=0).fit(data)
        ids, vals = index.search_batch(queries, 50)
        assert ids.shape == (3, 6) and vals.shape == (3, 6)
        for row in ids:
            assert sorted(row.tolist()) == list(range(6))

    def test_duplicate_points_deterministic(self):
        data = np.tile(np.arange(4.0), (20, 1))
        data[10:] += 1.0  # two groups of ten identical points each
        a = HNSWIndex(m=4, ef_construction=20, rng=0).fit(data)
        b = HNSWIndex(m=4, ef_construction=20, rng=0).fit(data)
        assert a._layers == b._layers
        assert a._entry_point == b._entry_point
        query = np.arange(4.0) + 0.1
        np.testing.assert_array_equal(
            a.search(query, 5)[0], b.search(query, 5)[0]
        )

    def test_single_node_has_no_edges_and_finds_itself(self):
        index = HNSWIndex(m=4, ef_construction=20, rng=0).fit(
            np.ones((1, 3))
        )
        assert [len(v) for v in index._layers[0].values()] == [0]
        ids, dists = index.search(np.ones(3), 5)
        assert ids.tolist() == [0]
        assert dists[0] == 0.0


class TestMetricKeys:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_keys_match_probe_key(self, hnsw_setup, metric):
        data, queries, index = hnsw_setup
        resolved = resolve_metric(metric)
        sq_norms = np.einsum("ij,ij->i", data, data)
        ids, keys = index.search(queries[0], 8, ef_search=60, metric=metric)
        expected = resolved.probe_key(data[ids], sq_norms[ids], queries[0])
        np.testing.assert_allclose(keys, expected, rtol=0, atol=1e-12)
        assert (np.diff(keys) >= 0).all()

    def test_stats_count_key_evals(self, hnsw_setup):
        _, queries, index = hnsw_setup
        stats = {}
        index.search(queries[0], 5, ef_search=30, metric="l2", stats=stats)
        assert stats[STAT_KEY_EVALS] > 0
        before = stats[STAT_KEY_EVALS]
        index.search(queries[1], 5, ef_search=30, metric="l2", stats=stats)
        assert stats[STAT_KEY_EVALS] > before

    def test_batch_matches_sequential(self, hnsw_setup):
        _, queries, index = hnsw_setup
        batch_ids, batch_vals = index.search_batch(
            queries, 6, ef_search=40, metric="ip"
        )
        for i, query in enumerate(queries):
            ids, vals = index.search(query, 6, ef_search=40, metric="ip")
            np.testing.assert_array_equal(batch_ids[i], ids)
            np.testing.assert_array_equal(batch_vals[i], vals)

    def test_full_ef_reaches_every_node(self, hnsw_setup):
        # The reachability-repair + entry-point seeding contract: a beam as
        # wide as the index must visit every node, for every metric.
        data, queries, index = hnsw_setup
        n = len(index)
        for metric in (None, "ip", "cosine"):
            ids, _ = index.search(queries[0], n, ef_search=n, metric=metric)
            assert sorted(ids.tolist()) == list(range(n))
