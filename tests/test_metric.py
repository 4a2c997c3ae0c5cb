"""Unit tests of the metric strategy layer (``repro.core.metric``) and the
metric-generic estimator extensions (``repro.core.estimator``), plus the
metric-aware IVF probing and re-ranking primitives they feed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import (
    CONST_DOT_C,
    CONST_RAW_NORM,
    N_CONSTS,
    N_CONSTS_SIM,
    DistanceEstimate,
    build_code_consts,
    fused_estimate,
    n_consts_for,
)
from repro.core.metric import (
    COSINE,
    IP,
    L2,
    METRICS,
    Metric,
    resolve_metric,
)
from repro.exceptions import InvalidParameterError
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.rerank import ErrorBoundReranker, NoReranker, TopCandidateReranker


class TestResolveMetric:
    def test_names_resolve_to_singletons(self):
        assert resolve_metric("l2") is L2
        assert resolve_metric("ip") is IP
        assert resolve_metric("cosine") is COSINE

    def test_instances_pass_through(self):
        for metric in METRICS.values():
            assert resolve_metric(metric) is metric

    def test_unknown_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_metric("euclid")

    def test_directions_and_const_counts(self):
        assert not L2.higher_is_better
        assert IP.higher_is_better and COSINE.higher_is_better
        assert n_consts_for("l2") == N_CONSTS
        assert n_consts_for("ip") == N_CONSTS_SIM
        assert n_consts_for("cosine") == N_CONSTS_SIM

    def test_sort_key_direction(self):
        values = np.array([3.0, -1.0, 2.0])
        assert L2.sort_key(values) is values  # the very array, not a copy
        np.testing.assert_array_equal(IP.sort_key(values), -values)

    def test_estimate_scores_alias(self):
        empty = np.empty(0)
        est = DistanceEstimate(
            distances=np.array([1.0, 2.0]),
            lower_bounds=empty,
            upper_bounds=empty,
            inner_products=empty,
        )
        assert est.scores is est.distances


class TestExactScores:
    def test_l2_matches_flat_index(self, rng):
        data = rng.standard_normal((40, 8))
        query = rng.standard_normal(8)
        flat = FlatIndex(data)
        np.testing.assert_array_equal(
            L2.exact_scores(flat.data, query), flat.distances(query)
        )

    def test_ip_is_raw_inner_product(self, rng):
        data = rng.standard_normal((40, 8))
        query = rng.standard_normal(8)
        np.testing.assert_allclose(IP.exact_scores(data, query), data @ query)

    def test_cosine_bounded_and_degenerate_zero(self, rng):
        data = rng.standard_normal((40, 8))
        data[3] = 0.0
        query = rng.standard_normal(8)
        scores = COSINE.exact_scores(data, query)
        assert np.all(np.abs(scores) <= 1.0 + 1e-12)
        assert scores[3] == 0.0
        assert COSINE.exact_scores(data, np.zeros(8)).tolist() == [0.0] * 40

    def test_cosine_self_similarity(self, rng):
        data = rng.standard_normal((10, 8))
        np.testing.assert_allclose(
            COSINE.exact_scores(data, data[4])[4], 1.0, atol=1e-12
        )


def _synthetic_consts(rng, n, metric):
    align = rng.uniform(0.4, 0.95, n)
    norms = rng.uniform(0.1, 2.0, n)
    pops = rng.integers(0, 64, n)
    extra = {}
    if resolve_metric(metric).n_consts > N_CONSTS:
        extra = dict(
            metric=metric,
            dot_centroid=rng.standard_normal(n),
            raw_norms=rng.uniform(0.5, 3.0, n),
        )
    return build_code_consts(align, norms, pops, 64, 1.9, **extra), align, norms


class TestBuildCodeConsts:
    def test_l2_layout_unchanged(self, rng):
        consts, _, _ = _synthetic_consts(rng, 30, "l2")
        assert consts.shape == (N_CONSTS, 30)

    def test_similarity_extends_l2_rows(self, rng):
        state = np.random.default_rng(5)
        align = state.uniform(0.4, 0.95, 30)
        norms = state.uniform(0.1, 2.0, 30)
        pops = state.integers(0, 64, 30)
        base = build_code_consts(align, norms, pops, 64, 1.9)
        ext = build_code_consts(
            align,
            norms,
            pops,
            64,
            1.9,
            metric="cosine",
            dot_centroid=np.arange(30.0),
            raw_norms=np.full(30, 2.0),
        )
        assert ext.shape == (N_CONSTS_SIM, 30)
        np.testing.assert_array_equal(ext[:N_CONSTS], base)
        np.testing.assert_array_equal(ext[CONST_DOT_C], np.arange(30.0))
        np.testing.assert_array_equal(ext[CONST_RAW_NORM], np.full(30, 2.0))

    def test_similarity_requires_extra_terms(self, rng):
        with pytest.raises(InvalidParameterError):
            build_code_consts(
                np.ones(4), np.ones(4), np.ones(4), 64, 1.9, metric="ip"
            )


class TestFusedEstimateSimilarity:
    def test_ip_values_follow_decomposition(self, rng):
        n = 50
        consts, align, norms = _synthetic_consts(rng, n, "ip")
        dots = rng.uniform(-0.8, 0.8, n) * align
        qn, qoff = 1.3, 0.4
        est = fused_estimate(dots, consts, qn, metric="ip", query_offset=qoff)
        ips = dots / align
        expected = norms * qn * ips + consts[CONST_DOT_C] + qoff
        np.testing.assert_allclose(est.distances, expected)
        assert np.all(est.lower_bounds <= est.distances + 1e-12)
        assert np.all(est.distances <= est.upper_bounds + 1e-12)

    def test_cosine_values_clipped_and_bracketed(self, rng):
        n = 50
        consts, _, _ = _synthetic_consts(rng, n, "cosine")
        dots = rng.uniform(-0.5, 0.5, n)
        est = fused_estimate(
            dots, consts, 0.9, metric="cosine", query_offset=0.1,
            query_raw_norm=1.7,
        )
        assert np.all(est.distances <= 1.0) and np.all(est.distances >= -1.0)
        assert np.all(est.lower_bounds <= est.distances)
        assert np.all(est.distances <= est.upper_bounds)

    def test_cosine_zero_query_norm_scores_zero(self, rng):
        consts, _, _ = _synthetic_consts(rng, 10, "cosine")
        est = fused_estimate(
            np.zeros(10), consts, 0.0, metric="cosine", query_offset=0.0,
            query_raw_norm=0.0,
        )
        assert est.distances.tolist() == [0.0] * 10
        assert est.lower_bounds.tolist() == [0.0] * 10

    def test_wrong_const_rows_rejected(self, rng):
        consts, _, _ = _synthetic_consts(rng, 10, "l2")
        with pytest.raises(InvalidParameterError):
            fused_estimate(np.zeros(10), consts, 1.0, metric="ip",
                           query_offset=0.0)

    def test_missing_query_terms_rejected(self, rng):
        consts, _, _ = _synthetic_consts(rng, 10, "ip")
        with pytest.raises(InvalidParameterError):
            fused_estimate(np.zeros(10), consts, 1.0, metric="ip")
        cos_consts, _, _ = _synthetic_consts(rng, 10, "cosine")
        with pytest.raises(InvalidParameterError):
            fused_estimate(
                np.zeros(10), cos_consts, 1.0, metric="cosine", query_offset=0.0
            )

    def test_batch_rows_match_sequential(self, rng):
        n, n_queries = 30, 4
        consts, _, _ = _synthetic_consts(rng, n, "cosine")
        dots = rng.uniform(-0.5, 0.5, (n_queries, n))
        qn = rng.uniform(0.2, 2.0, (n_queries, 1))
        qoff = rng.standard_normal((n_queries, 1))
        qraw = rng.uniform(0.2, 2.0, (n_queries, 1))
        batch = fused_estimate(
            dots, consts, qn, metric="cosine", query_offset=qoff,
            query_raw_norm=qraw,
        )
        for i in range(n_queries):
            single = fused_estimate(
                dots[i], consts, float(qn[i, 0]), metric="cosine",
                query_offset=float(qoff[i, 0]),
                query_raw_norm=float(qraw[i, 0]),
            )
            np.testing.assert_array_equal(batch.distances[i], single.distances)
            np.testing.assert_array_equal(
                batch.lower_bounds[i], single.lower_bounds
            )
            np.testing.assert_array_equal(
                batch.upper_bounds[i], single.upper_bounds
            )


class TestMetricProbing:
    @pytest.fixture()
    def ivf(self, small_data):
        return IVFIndex(10, rng=0).fit(small_data)

    def test_ip_probe_ranks_by_centroid_inner_product(self, ivf, rng):
        query = rng.standard_normal(32)
        got = ivf.probe(query, 4, metric="ip")
        scores = ivf.centroids @ query
        expected = np.argsort(-scores, kind="stable")[:4]
        assert set(got.tolist()) == set(expected.tolist())
        # Best-first order on the returned prefix.
        assert list(scores[got]) == sorted(scores[got], reverse=True)

    def test_cosine_probe_ranks_by_centroid_cosine(self, ivf, rng):
        query = rng.standard_normal(32)
        got = ivf.probe(query, 4, metric="cosine")
        norms = np.linalg.norm(ivf.centroids, axis=1)
        scores = (ivf.centroids @ query) / norms
        assert list(scores[got]) == sorted(scores[got], reverse=True)

    def test_probe_batch_matches_probe(self, ivf, small_queries):
        for metric in ("ip", "cosine"):
            batch = ivf.probe_batch(small_queries, 3, metric=metric)
            for i in range(small_queries.shape[0]):
                np.testing.assert_array_equal(
                    batch[i], ivf.probe(small_queries[i], 3, metric=metric)
                )

    def test_l2_default_unchanged(self, ivf, rng):
        query = rng.standard_normal(32)
        np.testing.assert_array_equal(
            ivf.probe(query, 5), ivf.probe(query, 5, metric="l2")
        )


def _estimate_for(metric: Metric, data, query, noise_rng, spread=0.25):
    """A DistanceEstimate whose values are noisy exact scores with valid bounds."""
    exact = metric.exact_scores(data, query)
    noise = noise_rng.uniform(-spread, spread, exact.shape[0])
    values = exact + noise
    return DistanceEstimate(
        distances=values,
        lower_bounds=values - spread,
        upper_bounds=values + spread,
        inner_products=np.zeros_like(values),
    )


class TestDirectionalReranking:
    """The max-direction re-rankers against naive exact references."""

    @pytest.fixture()
    def setup(self, rng):
        data = np.random.default_rng(21).standard_normal((120, 16))
        query = np.random.default_rng(22).standard_normal(16)
        return FlatIndex(data), data, query

    @pytest.mark.parametrize("metric_name", ["ip", "cosine"])
    def test_error_bound_matches_exact_topk(self, setup, metric_name):
        flat, data, query = setup
        metric = resolve_metric(metric_name)
        noise_rng = np.random.default_rng(23)
        ids = np.arange(120, dtype=np.int64)
        estimate = _estimate_for(metric, data, query, noise_rng)
        got_ids, got_vals, n_exact = ErrorBoundReranker().rerank(
            query, ids, estimate, flat, 10, metric=metric
        )
        exact = metric.exact_scores(data, query)
        want = np.argsort(-exact, kind="stable")[:10]
        np.testing.assert_array_equal(got_ids, want)
        np.testing.assert_array_equal(got_vals, exact[want])
        assert np.all(np.diff(got_vals) <= 0.0)  # descending
        assert 10 <= n_exact <= 120

    @pytest.mark.parametrize("metric_name", ["ip", "cosine"])
    def test_error_bound_prunes_with_tight_bounds(self, setup, metric_name):
        # With zero-width intervals the reranker must stop as soon as the
        # k-th best exact score beats every remaining upper bound.
        flat, data, query = setup
        metric = resolve_metric(metric_name)
        exact = metric.exact_scores(data, query)
        ids = np.arange(120, dtype=np.int64)
        estimate = DistanceEstimate(
            distances=exact.copy(),
            lower_bounds=exact.copy(),
            upper_bounds=exact.copy(),
            inner_products=np.zeros_like(exact),
        )
        got_ids, _, n_exact = ErrorBoundReranker().rerank(
            query, ids, estimate, flat, 5, metric=metric
        )
        want = np.argsort(-exact, kind="stable")[:5]
        np.testing.assert_array_equal(got_ids, want)
        assert n_exact < 120  # the suffix-extremum early exit fired

    def test_top_candidate_max_direction(self, setup):
        flat, data, query = setup
        noise_rng = np.random.default_rng(31)
        ids = np.arange(120, dtype=np.int64)
        estimate = _estimate_for(IP, data, query, noise_rng, spread=10.0)
        got_ids, got_vals, n_exact = TopCandidateReranker(120).rerank(
            query, ids, estimate, flat, 7, metric="ip"
        )
        exact = data @ query
        want = np.argsort(-exact, kind="stable")[:7]
        np.testing.assert_array_equal(got_ids, want)
        np.testing.assert_allclose(got_vals, exact[want])
        assert n_exact == 120

    def test_no_reranker_orders_descending(self, setup):
        flat, data, query = setup
        ids = np.arange(120, dtype=np.int64)
        estimate = _estimate_for(IP, data, query, np.random.default_rng(41))
        got_ids, got_vals, n_exact = NoReranker().rerank(
            query, ids, estimate, flat, 9, metric="ip"
        )
        want = np.argsort(-estimate.distances, kind="stable")[:9]
        np.testing.assert_array_equal(got_ids, want)
        assert n_exact == 0
        assert np.all(np.diff(got_vals) <= 0.0)

    def test_l2_default_still_ascending(self, setup):
        flat, data, query = setup
        ids = np.arange(120, dtype=np.int64)
        estimate = _estimate_for(L2, data, query, np.random.default_rng(51))
        got_ids, got_vals, _ = ErrorBoundReranker().rerank(
            query, ids, estimate, flat, 6
        )
        exact = L2.exact_scores(data, query)
        want = np.argsort(exact, kind="stable")[:6]
        np.testing.assert_array_equal(got_ids, want)
        assert np.all(np.diff(got_vals) >= 0.0)
