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


def _flat_batch(candidate_lists, estimates):
    """Per-query candidate lists and estimates in ``rerank_batch``'s flat form."""
    offsets = np.cumsum([0] + [len(ids) for ids in candidate_lists])
    flat_estimate = DistanceEstimate(
        *(
            np.concatenate([getattr(e, field) for e in estimates])
            for field in ("distances", "lower_bounds", "upper_bounds", "inner_products")
        )
    )
    return np.concatenate(candidate_lists), flat_estimate, offsets


class TestRerankBatch:
    def test_default_batch_matches_loop(self, rerank_setup):
        query, ids, estimate, flat, _ = rerank_setup
        rng = np.random.default_rng(3)
        queries = np.stack([query, query + 0.1 * rng.standard_normal(query.shape[0])])
        estimates = [estimate, _slice(estimate, len(ids))]
        candidate_lists = [ids, ids]
        flat_ids, flat_estimate, offsets = _flat_batch(candidate_lists, estimates)
        for reranker in (NoReranker(), TopCandidateReranker(50), ErrorBoundReranker()):
            batch = reranker.rerank_batch(
                queries, flat_ids, flat_estimate, offsets, flat, 5
            )
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
                np.stack([query, query]), ids, estimate, [0, len(ids)], flat, 5
            )


_N_POINTS = 400  # one shared 1-d flat index for every row of a drawn batch


@st.composite
def _batches(draw):
    """A flat L2 batch whose rows mix every shape the batched path sorts.

    A batch holds 12 to 40 rows: none, one or two full blocks of 16 and
    the rows past them.  Per row Hypothesis draws the list length (empty,
    shorter than, equal to and longer than the chunk), how far estimates
    stray, tie blocks, a tie forced at the chunk boundary, interval width (tight rows stop after
    the first chunk, wide or missing ones continue), NaN estimates and
    bounds, and whether the row repeats the previous one.  The points are
    ``5 * permutation`` on a line and a row's query is 0 or 2.5, so exact
    keys are known and sometimes tied.
    """
    k = draw(st.sampled_from([1, 10, 64, 100]))
    chunk = max(64, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 5.0 * rng.permutation(_N_POINTS)
    rows = []
    for _ in range(draw(st.integers(12, 40))):
        if rows and draw(st.booleans()):
            rows.append(rows[-1])
            continue
        n = draw(st.sampled_from([0, chunk // 2, chunk, chunk + 1, 2 * chunk, 3 * chunk + 7]))
        spread = draw(st.sampled_from([0.0, 2.0**8, 2.0**14]))
        grid = draw(st.sampled_from([0.0, 2.0**15]))
        width = draw(st.sampled_from([0.0, 2.0**8, 2.0**17]))
        hold = draw(st.booleans())
        nan_frac = draw(st.sampled_from([0.0, 0.0, 0.02]))
        query = draw(st.sampled_from([0.0, 2.5]))
        ids = rng.choice(_N_POINTS, n, replace=False).astype(np.int64)
        key = (x[ids] - query) ** 2
        est = key + spread * rng.standard_normal(n)
        if grid:
            est = np.round(est / grid) * grid
        if n > chunk and draw(st.booleans()):
            order = np.argsort(est, kind="stable")
            est[order[chunk]] = est[order[chunk - 1]]
        opt = np.minimum(est, key if hold else est) - width * rng.random(n)
        est[rng.random(n) < nan_frac] = np.nan
        opt[rng.random(n) < nan_frac] = np.nan
        rows.append((query, ids, est, opt))
    return x, rows, k


class TestRerankBatchContract:
    """``ErrorBoundReranker.rerank_batch`` answers every row as ``rerank``.

    Ids, value bits and the exact-computation count of each row equal both
    the per-query reranker and the plain reference, whichever path the row
    takes: the batched first chunk (stopping there or continuing in the
    shared scan) or the per-query fallback.
    """

    @staticmethod
    def _check(x, rows, k):
        flat = FlatIndex(x[:, None])
        queries = np.array([[query] for query, *_ in rows])
        estimates = [
            DistanceEstimate(
                distances=est, lower_bounds=opt, upper_bounds=est,
                inner_products=np.zeros_like(est),
            )
            for _, _, est, opt in rows
        ]
        id_lists = [ids for _, ids, _, _ in rows]
        flat_ids, flat_estimate, offsets = _flat_batch(id_lists, estimates)
        reranker = ErrorBoundReranker()
        batch = reranker.rerank_batch(queries, flat_ids, flat_estimate, offsets, flat, k)
        assert len(batch) == len(rows)
        for got, query, ids, estimate in zip(batch, queries, id_lists, estimates):
            for want in (
                reranker.rerank(query, ids, estimate, flat, k),
                reference_rerank_l2(query, ids, estimate, flat, k),
            ):
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2] == want[2]
        return batch

    @given(_batches())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_rerank_and_reference(self, batch):
        self._check(*batch)

    @staticmethod
    def _rows(rng, x, n_rows):
        """Rows alternating tight intervals (they stop after the 64-candidate
        chunk) and wide ones (they continue in the scan)."""
        rows = []
        for width in (0.0, 2.0**20) * (n_rows // 2):
            ids = rng.choice(_N_POINTS, 300, replace=False).astype(np.int64)
            key = x[ids] ** 2
            est = key + 2.0**8 * rng.standard_normal(300)
            rows.append((0.0, ids, est, np.minimum(est, key) - width))
        return rows

    @pytest.mark.parametrize("n_rows, n_rerank", [(16, 0), (36, 4), (14, 14), (2, 2)])
    def test_full_blocks_skip_rerank(self, monkeypatch, n_rows, n_rerank):
        # Rows of a full 16-row block are answered without rerank(): the
        # stopping ones from the batched chunk, the continuing ones by the
        # shared scan.  Rows past the last full block go through rerank().
        rng = np.random.default_rng(n_rows)
        x = 5.0 * rng.permutation(_N_POINTS)
        rows = self._rows(rng, x, n_rows)
        calls = []
        rerank = ErrorBoundReranker.rerank

        def counted(self, *args, **kwargs):
            calls.append(1)
            return rerank(self, *args, **kwargs)

        monkeypatch.setattr(ErrorBoundReranker, "rerank", counted)
        flat_ids, flat_estimate, offsets = _flat_batch(
            [ids for _, ids, _, _ in rows],
            [DistanceEstimate(est, opt, est, np.zeros_like(est)) for _, _, est, opt in rows],
        )
        ErrorBoundReranker().rerank_batch(
            np.zeros((n_rows, 1)), flat_ids, flat_estimate, offsets, FlatIndex(x[:, None]), 10
        )
        monkeypatch.undo()
        assert len(calls) == n_rerank
        n_exact = [row[2] for row in self._check(x, rows, 10)]
        assert n_exact[0::2] == [64] * (n_rows // 2)
        assert min(n_exact[1::2]) > 64

    def test_skewed_batch_pads_within_its_candidates(self, monkeypatch):
        # One row 50x longer than the rest: no padded block may hold more
        # than twice the batch's candidates, and every answer holds.
        lengths = [100] * 20 + [5000] + [100] * 20
        rng = np.random.default_rng(8)
        data = rng.standard_normal((6000, 8))
        queries = rng.standard_normal((len(lengths), 8))
        id_lists = [rng.choice(6000, n, replace=False) for n in lengths]
        estimates = [_noisy_l2(data, q, ids, rng) for q, ids in zip(queries, id_lists)]
        padded_cells = []
        full = np.full

        def spy(shape, *args, **kwargs):
            padded_cells.append(int(np.prod(shape)))
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", spy)
        batch = _assert_batch_equals_rerank(
            ErrorBoundReranker(), queries, id_lists, estimates, FlatIndex(data), 10
        )
        monkeypatch.undo()
        assert padded_cells and max(padded_cells) <= 2 * sum(lengths)
        assert [row[2] for row in batch].count(64) > 30


def _noisy_l2(data, query, ids, rng, spread=0.5):
    """An L2 estimate of ``ids``: exact distances plus noise, bounds around it."""
    key = np.einsum("ij,ij->i", data[ids] - query, data[ids] - query)
    est = key + spread * rng.standard_normal(ids.shape[0])
    return DistanceEstimate(
        distances=est, lower_bounds=np.minimum(est, key) - spread,
        upper_bounds=np.maximum(est, key) + spread, inner_products=np.zeros_like(est),
    )


def _assert_batch_equals_rerank(reranker, queries, id_lists, estimates, flat, k):
    flat_ids, flat_estimate, offsets = _flat_batch(id_lists, estimates)
    batch = reranker.rerank_batch(queries, flat_ids, flat_estimate, offsets, flat, k)
    for got, query, ids, estimate in zip(batch, queries, id_lists, estimates):
        want = reranker.rerank(query, ids, estimate, flat, k)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]
    return batch


class TestBatchedExactL2:
    """The blocked gather + 3-D ``einsum`` has the per-query kernel's bits."""

    @pytest.mark.parametrize("dim", [1, 3, 17, 128, 960])
    def test_bits_equal_per_query_einsum(self, dim):
        # 37 rows make two blocks of 16 and 5 rows past them (those take
        # rerank()); the query rows are strided views of a wider matrix.
        # Bounds equal to the exact distances stop every row after its first
        # chunk, so the values of the first 32 rows come from the batched
        # kernel.
        rng = np.random.default_rng(dim)
        data = rng.standard_normal((500, dim))
        wide = rng.standard_normal((74, dim + 3))
        queries = wide[::2, 1 : dim + 1]
        assert not queries.flags.c_contiguous
        id_lists, estimates = [], []
        for query in queries:
            ids = rng.choice(500, 150, replace=False)
            key = np.einsum("ij,ij->i", data[ids] - query, data[ids] - query)
            id_lists.append(ids)
            estimates.append(DistanceEstimate(key, key, key, np.zeros_like(key)))
        batch = _assert_batch_equals_rerank(
            ErrorBoundReranker(), queries, id_lists, estimates, FlatIndex(data), 10
        )
        for (got_ids, got_vals, n_exact), query in zip(batch, queries):
            assert n_exact == 64
            diff = data[got_ids] - query[None, :]
            assert got_vals.tobytes() == np.einsum("ij,ij->i", diff, diff).tobytes()


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
