"""Tests for repro.index.rerank (re-ranking strategies)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RaBitQConfig
from repro.core.estimator import DistanceEstimate
from repro.core.quantizer import RaBitQ
from repro.exceptions import InvalidParameterError
from repro.index.flat import FlatIndex
from repro.index.rerank import ErrorBoundReranker, NoReranker, TopCandidateReranker

from rerank_reference import reference_rerank, reference_rerank_l2


@pytest.fixture(scope="module")
def rerank_setup():
    rng = np.random.default_rng(21)
    data = rng.standard_normal((600, 48))
    query = rng.standard_normal(48)
    quantizer = RaBitQ(RaBitQConfig(seed=1)).fit(data)
    estimate = quantizer.estimate_distances(query)
    flat = FlatIndex(data)
    candidate_ids = np.arange(600, dtype=np.int64)
    true_order = np.argsort(((data - query) ** 2).sum(axis=1))
    return query, candidate_ids, estimate, flat, true_order


class TestNoReranker:
    def test_returns_estimated_ranking(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        out_ids, out_dists, n_exact = NoReranker().rerank(query, ids, estimate, flat, 10)
        assert n_exact == 0
        expected = ids[np.argsort(estimate.distances)][:10]
        np.testing.assert_array_equal(out_ids, expected)
        assert (np.diff(out_dists) >= 0).all()

    def test_k_larger_than_candidates(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        out_ids, _, _ = NoReranker().rerank(query, ids[:5], _slice(estimate, 5), flat, 50)
        assert out_ids.shape == (5,)

    def test_invalid_k(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        with pytest.raises(InvalidParameterError):
            NoReranker().rerank(query, ids, estimate, flat, 0)


def _slice(estimate, n):
    """Helper slicing a DistanceEstimate to its first n entries."""
    return DistanceEstimate(
        distances=estimate.distances[:n],
        lower_bounds=estimate.lower_bounds[:n],
        upper_bounds=estimate.upper_bounds[:n],
        inner_products=estimate.inner_products[:n],
    )


class TestTopCandidateReranker:
    def test_exact_distances_returned(self, rerank_setup):
        query, ids, estimate, flat, true_order = rerank_setup
        out_ids, out_dists, n_exact = TopCandidateReranker(200).rerank(
            query, ids, estimate, flat, 10
        )
        assert n_exact == 200
        np.testing.assert_allclose(
            out_dists, flat.distances(query, out_ids), atol=1e-9
        )

    def test_perfect_recall_with_full_budget(self, rerank_setup):
        query, ids, estimate, flat, true_order = rerank_setup
        out_ids, _, _ = TopCandidateReranker(600).rerank(query, ids, estimate, flat, 10)
        np.testing.assert_array_equal(np.sort(out_ids), np.sort(true_order[:10]))

    def test_larger_budget_not_worse(self, rerank_setup):
        query, ids, estimate, flat, true_order = rerank_setup
        small_ids, _, _ = TopCandidateReranker(20).rerank(query, ids, estimate, flat, 10)
        large_ids, _, _ = TopCandidateReranker(300).rerank(query, ids, estimate, flat, 10)
        truth = set(true_order[:10].tolist())
        assert len(truth & set(large_ids.tolist())) >= len(truth & set(small_ids.tolist()))

    def test_empty_candidates(self, rerank_setup):
        query, _, estimate, flat, _ = rerank_setup
        out_ids, out_dists, n_exact = TopCandidateReranker(10).rerank(
            query, np.empty(0, dtype=np.int64), _slice(estimate, 0), flat, 5
        )
        assert out_ids.size == 0 and n_exact == 0

    def test_invalid_budget(self):
        with pytest.raises(InvalidParameterError):
            TopCandidateReranker(0)


class TestTieOrder:
    """The argpartition-based selection must break ties like a stable sort."""

    def _tied_estimate(self):
        # Heavy duplication straddling every interesting boundary.
        est = np.array([3.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0])
        return DistanceEstimate(
            distances=est,
            lower_bounds=est - 0.5,
            upper_bounds=est + 0.5,
            inner_products=np.zeros_like(est),
        )

    def test_no_reranker_tie_order(self, rerank_setup):
        query, _, _, flat, _ = rerank_setup
        estimate = self._tied_estimate()
        ids = np.arange(100, 110, dtype=np.int64)
        out_ids, out_dists, _ = NoReranker().rerank(query, ids, estimate, flat, 7)
        reference = ids[np.argsort(estimate.distances, kind="stable")[:7]]
        np.testing.assert_array_equal(out_ids, reference)
        np.testing.assert_array_equal(
            out_dists, estimate.distances[np.argsort(estimate.distances, kind="stable")[:7]]
        )

    def test_top_candidate_tie_order(self, rerank_setup):
        query, _, _, flat, _ = rerank_setup
        estimate = self._tied_estimate()
        ids = np.arange(10, dtype=np.int64)
        # Budget of 3 cuts through the block of tied 1.0 estimates: the
        # shortlist must contain the lowest-index ties, as a stable full
        # sort would select.
        out_ids, _, n_exact = TopCandidateReranker(3).rerank(
            query, ids, estimate, flat, 3
        )
        assert n_exact == 3
        assert set(out_ids.tolist()) == {1, 3, 4}


class TestErrorBoundReference:
    """The reranker reproduces the plain reference: full sort, heap."""

    @pytest.mark.parametrize("k", [1, 7, 64, 130])
    def test_matches_eager_reference(self, rerank_setup, k):
        query, ids, estimate, flat, _ = rerank_setup
        got = ErrorBoundReranker().rerank(query, ids, estimate, flat, k)
        want = reference_rerank_l2(query, ids, estimate, flat, k)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_matches_eager_reference_with_ties(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        # Quantize the estimates coarsely to create massive tie blocks.
        tied = DistanceEstimate(
            distances=np.round(estimate.distances, 0),
            lower_bounds=np.round(estimate.lower_bounds, 0),
            upper_bounds=estimate.upper_bounds,
            inner_products=estimate.inner_products,
        )
        got = ErrorBoundReranker().rerank(query, ids, tied, flat, 10)
        want = reference_rerank_l2(query, ids, tied, flat, 10)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]


def _problem(metric, x, est, opt, pess):
    """A 1-d flat index whose exact keys are known, plus its estimate.

    Keys are minimization keys: ``x * x`` (query 0) under ``"l2"`` and
    ``-x`` (query 1) under ``"ip"``; the estimate carries ``est`` / ``opt`` /
    ``pess`` translated back to that metric's values and bounds.
    """
    flat = FlatIndex(np.asarray(x, dtype=np.float64)[:, None])
    if metric == "l2":
        estimate = DistanceEstimate(
            distances=est, lower_bounds=opt, upper_bounds=pess,
            inner_products=np.zeros_like(est),
        )
        return flat, np.zeros(1), estimate, x * x
    estimate = DistanceEstimate(
        distances=-est, lower_bounds=-pess, upper_bounds=-opt,
        inner_products=np.zeros_like(est),
    )
    return flat, np.ones(1), estimate, -x


def _keys(metric, values):
    """Reranker output values as minimization keys."""
    return values if metric == "l2" else -values


@st.composite
def _problems(draw, hold=True):
    """Distinct exact keys with an estimate and an interval for each.

    Hypothesis draws the shape — the metric, up to 200 candidates (four
    64-chunks), ``k`` from 1 to ``n + 3``, how far estimates stray, whether
    they fall into tie blocks, how wide the intervals are, whether bounds
    sit exactly on exact keys — and a seed from which NumPy draws the
    arrays, so an example is cheap and shrinks fast.
    With ``hold`` every interval holds both the exact key and the estimate;
    without it the interval is centred on the estimate alone and often
    misses the exact key.
    """
    metric = draw(st.sampled_from(["l2", "ip"]))
    n = draw(st.integers(1, 200))
    k = draw(st.integers(1, n + 3))
    spread = draw(st.sampled_from([0.0, 2.0**10, 2.0**16, 2.0**20]))
    grid = draw(st.sampled_from([0.0, 2.0**17]))  # tie blocks when > 0
    width = draw(st.sampled_from([0.0, 2.0**10, 2.0**16, 2.0**19]))
    zero_frac = draw(st.sampled_from([0.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Keys span about +-2**20 under either metric.
    rank = rng.permutation(n).astype(np.float64)
    x = 5.0 * rank if metric == "l2" else 5000.0 * rank - 2.0**19
    key = x * x if metric == "l2" else -x
    est = key + spread * rng.standard_normal(n)
    if grid:
        est = np.round(est / grid) * grid

    def widths():
        return np.where(rng.random(n) < zero_frac, 0.0, width * rng.random(n))

    inside = key if hold else est
    opt = np.minimum(est, inside) - widths()
    pess = np.maximum(est, inside) + widths()
    if draw(st.booleans()):
        # Lower each optimistic bound onto the nearest exact key at or
        # below it, so bounds tie the threshold exactly.
        keys = np.sort(key)
        below = np.searchsorted(keys, opt, side="right") - 1
        opt = np.where(below >= 0, keys[np.maximum(below, 0)], opt)
    return metric, x, est, opt, pess, k


def _rerank_problem(problem):
    """Run the reranker and the reference on one drawn problem."""
    metric, x, est, opt, pess, k = problem
    flat, query, estimate, key = _problem(metric, x, est, opt, pess)
    ids = np.arange(x.shape[0], dtype=np.int64)
    got_ids, got_vals, n_exact = ErrorBoundReranker().rerank(
        query, ids, estimate, flat, k, metric=metric
    )
    want = reference_rerank(ids, est, opt, key.__getitem__, k)
    np.testing.assert_array_equal(got_ids, want[0])
    assert _keys(metric, got_vals).tobytes() == want[1].tobytes()
    assert n_exact == want[2]
    return got_ids, key


class TestCutContract:
    """The cut changes neither the answer nor the count, on any input.

    It is made of exact values (the first chunk's ``k``-th best), so the
    reranker must equal the full-sort reference — ids, value bits and the
    exact-computation count — whether the intervals hold or not.
    """

    @given(_problems())
    @settings(max_examples=60, deadline=None)
    def test_intervals_hold_exact_top_k(self, problem):
        got_ids, key = _rerank_problem(problem)
        k = problem[-1]
        top = np.argsort(key, kind="stable")[:k]
        np.testing.assert_array_equal(got_ids, top)

    @given(_problems(hold=False))
    @settings(max_examples=60, deadline=None)
    def test_intervals_miss_reference_unchanged(self, problem):
        _rerank_problem(problem)

    @given(
        _problems(hold=False),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_nan_bounds_and_estimates(self, problem, nan_frac, seed):
        metric, x, est, opt, pess, k = problem
        rng = np.random.default_rng(seed)

        def holes(values):
            return np.where(rng.random(values.shape[0]) < nan_frac, np.nan, values)

        _rerank_problem((metric, x, holes(est), holes(opt), holes(pess), k))

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_ten_thousand_candidates(self, metric):
        rng = np.random.default_rng(34)
        data = rng.standard_normal((10_000, 32))
        query = rng.standard_normal(32)
        estimate = (
            RaBitQ(RaBitQConfig(seed=2), metric=metric)
            .fit(data)
            .estimate_distances(query)
        )
        flat = FlatIndex(data)
        ids = np.arange(10_000, dtype=np.int64)
        if metric == "l2":
            est, opt = estimate.distances, estimate.lower_bounds

            def exact_key(selected):
                return flat.distances(query, selected)
        else:
            est, opt = -estimate.scores, -estimate.upper_bounds

            def exact_key(selected):
                return -(data[selected] @ query)
        for k in (1, 10, 100):
            got_ids, got_vals, n_exact = ErrorBoundReranker().rerank(
                query, ids, estimate, flat, k, metric=metric
            )
            want = reference_rerank(ids, est, opt, exact_key, k)
            np.testing.assert_array_equal(got_ids, want[0])
            assert _keys(metric, got_vals).tobytes() == want[1].tobytes()
            assert n_exact == want[2]


class TestRerankBatch:
    def test_default_batch_matches_loop(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        rng = np.random.default_rng(3)
        queries = np.stack([query, query + 0.1 * rng.standard_normal(query.shape[0])])
        estimates = [estimate, _slice(estimate, len(ids))]
        candidate_lists = [ids, ids]
        for reranker in (NoReranker(), TopCandidateReranker(50), ErrorBoundReranker()):
            batch = reranker.rerank_batch(queries, candidate_lists, estimates, flat, 5)
            assert len(batch) == 2
            for i, (got_ids, got_dists, got_exact) in enumerate(batch):
                want_ids, want_dists, want_exact = reranker.rerank(
                    queries[i], candidate_lists[i], estimates[i], flat, 5
                )
                np.testing.assert_array_equal(got_ids, want_ids)
                np.testing.assert_array_equal(got_dists, want_dists)
                assert got_exact == want_exact

    def test_batch_shape_validation(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        with pytest.raises(InvalidParameterError):
            NoReranker().rerank_batch(
                np.stack([query, query]), [ids], [estimate], flat, 5
            )


class TestErrorBoundReranker:
    def test_finds_true_nearest_neighbours(self, rerank_setup):
        query, ids, estimate, flat, true_order = rerank_setup
        out_ids, out_dists, _ = ErrorBoundReranker().rerank(
            query, ids, estimate, flat, 10
        )
        recall = len(set(out_ids.tolist()) & set(true_order[:10].tolist())) / 10
        assert recall >= 0.9

    def test_exact_distances_returned(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        out_ids, out_dists, _ = ErrorBoundReranker().rerank(
            query, ids, estimate, flat, 10
        )
        np.testing.assert_allclose(
            out_dists, flat.distances(query, out_ids), atol=1e-9
        )
        assert (np.diff(out_dists) >= 0).all()

    def test_prunes_exact_computations(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        _, _, n_exact = ErrorBoundReranker().rerank(query, ids, estimate, flat, 10)
        # The bound-based rule should skip a substantial share of candidates.
        assert n_exact < len(ids)

    def test_more_work_than_top_k(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        _, _, n_exact = ErrorBoundReranker().rerank(query, ids, estimate, flat, 10)
        assert n_exact >= 10

    def test_empty_candidates(self, rerank_setup):
        query, _, estimate, flat, _ = rerank_setup
        out_ids, _, n_exact = ErrorBoundReranker().rerank(
            query, np.empty(0, dtype=np.int64), _slice(estimate, 0), flat, 5
        )
        assert out_ids.size == 0 and n_exact == 0

    def test_invalid_k(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        with pytest.raises(InvalidParameterError):
            ErrorBoundReranker().rerank(query, ids, estimate, flat, 0)
