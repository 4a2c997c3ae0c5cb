"""End-to-end tests of the metric-generic serving stack.

Pins the acceptance contract of the metric refactor: ``metric="ip"`` and
``metric="cosine"`` searches agree with brute-force ground truth on
rerank-exact results, batch ≡ sequential equivalence holds for every
metric across the index lifecycle, archives record the metric, and
degenerate shapes behave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.metric import resolve_metric
from repro.datasets.ground_truth import brute_force_ground_truth
from repro.exceptions import InvalidParameterError, PersistenceError
from repro.index.rerank import NoReranker, TopCandidateReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.io.persistence import load_searcher, save_searcher
from test_searcher_persistence import _tamper

SIM_METRICS = ("ip", "cosine")
N, DIM, N_CLUSTERS = 600, 40, 8


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(77)
    # A shared offset gives inner products real signal (the MIPS setting).
    data = rng.standard_normal((N, DIM)) + 0.25
    extra = rng.standard_normal((35, DIM)) + 0.25
    queries = rng.standard_normal((10, DIM)) + 0.25
    return data, extra, queries


def _build(metric, data, *, reranker=None, **kwargs):
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(seed=5),
        rng=9,
        metric=metric,
        reranker=reranker,
        compact_threshold=None,
        **kwargs,
    )
    return searcher.fit(data)


def _assert_result_equal(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.n_candidates == b.n_candidates
    assert a.n_exact == b.n_exact


class TestGroundTruthAgreement:
    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_exhaustive_rerank_equals_brute_force(self, corpus, metric):
        # Full probing + an exhaustive TopCandidate re-ranker computes the
        # exact metric for every candidate: the answer must *equal* the
        # brute-force ground truth, not merely approximate it.
        data, _, queries = corpus
        searcher = _build(metric, data, reranker=TopCandidateReranker(N))
        gt, gt_vals = brute_force_ground_truth(
            data, queries, 10, metric=metric, return_distances=True
        )
        for i, query in enumerate(queries):
            result = searcher.search(query, 10, nprobe=N_CLUSTERS)
            np.testing.assert_array_equal(result.ids, gt[i])
            np.testing.assert_allclose(result.distances, gt_vals[i], rtol=1e-9)
            assert np.all(np.diff(result.distances) <= 0.0)  # descending

    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_error_bound_rerank_high_recall(self, corpus, metric):
        data, _, queries = corpus
        searcher = _build(metric, data)
        gt = brute_force_ground_truth(data, queries, 10, metric=metric)
        hits = 0
        for i, query in enumerate(queries):
            result = searcher.search(query, 10, nprobe=N_CLUSTERS)
            hits += len(set(result.ids.tolist()) & set(gt[i].tolist()))
        assert hits / (queries.shape[0] * 10) >= 0.9


class TestGroundTruthTieBreaking:
    @pytest.mark.parametrize("metric", ("l2",) + SIM_METRICS)
    def test_ties_resolve_toward_lower_id(self, metric):
        # Duplicate vectors force exact score ties; the documented contract
        # is the stable-argsort prefix (ties toward the lower id).
        rng = np.random.default_rng(0)
        base = rng.standard_normal((5, 8))
        data = base[rng.integers(0, 5, 40)]
        queries = rng.standard_normal((3, 8))
        got = brute_force_ground_truth(data, queries, 7, metric=metric)
        resolved = resolve_metric(metric)
        for i in range(queries.shape[0]):
            key = resolved.sort_key(resolved.exact_scores(data, queries[i]))
            want = np.argsort(key, kind="stable")[:7]
            np.testing.assert_array_equal(got[i], want)


class TestBatchSequentialShardedEquivalence:
    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_batch_equals_sequential_across_lifecycle(self, corpus, metric):
        data, extra, queries = corpus

        def run(entry):
            searcher = _build(metric, data)
            outputs = [entry(searcher, queries)]
            searcher.insert(extra)
            searcher.delete(np.arange(0, 90, 9))
            outputs.append(entry(searcher, queries))
            searcher.compact()
            outputs.append(entry(searcher, queries))
            return outputs

        sequential = run(
            lambda s, qs: [s.search(q, 7, nprobe=3) for q in qs]
        )
        batched = run(lambda s, qs: list(s.search_batch(qs, 7, nprobe=3)))
        for seq_stage, batch_stage in zip(sequential, batched):
            for a, b in zip(seq_stage, batch_stage):
                _assert_result_equal(a, b)


class TestSimilarityGroupsOfManyQueries:
    """``search_batch`` ≡ ``search`` where the batch path's per-group
    similarity terms meet groups of many queries: 2,400 points, 16
    clusters, 64 queries probing 4 each, some rows deleted."""

    @pytest.mark.parametrize("bits", [1, 4])
    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_batch_equals_sequential(self, metric, bits):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((2400, DIM)) + 0.25
        queries = rng.standard_normal((64, DIM)) + 0.25
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=16,
            rabitq_config=RaBitQConfig(seed=5),
            rng=9,
            metric=metric,
            bits=bits,
            compact_threshold=None,
        ).fit(data)
        searcher.delete(np.arange(0, 2400, 7))
        probes = searcher.ivf.probe_batch(queries, 4, metric=searcher._metric)
        assert np.bincount(probes.ravel()).max() > 1
        for reranker in (searcher.reranker, NoReranker()):
            searcher.reranker = reranker
            batch = searcher.search_batch(queries, 10, nprobe=4)
            for query, got in zip(queries, batch):
                want = searcher.search(query, 10, nprobe=4)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(
                    got.distances.view(np.int64), want.distances.view(np.int64)
                )
                assert got.n_candidates == want.n_candidates
                assert got.n_exact == want.n_exact


class TestMetricPersistence:
    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_round_trip_bit_identical(self, corpus, metric, tmp_path):
        data, extra, queries = corpus
        searcher = _build(metric, data)
        searcher.insert(extra)
        searcher.delete([3, 8, 100])
        path = tmp_path / f"{metric}.npz"
        save_searcher(searcher, path)
        twin = _build(metric, data)
        twin.insert(extra)
        twin.delete([3, 8, 100])
        loaded = load_searcher(path)
        assert loaded.metric == metric
        for query in queries:
            _assert_result_equal(
                loaded.search(query, 6, nprobe=4), twin.search(query, 6, nprobe=4)
            )
        # ... and the reloaded searcher supports the further lifecycle.
        loaded.insert(np.random.default_rng(1).standard_normal((4, DIM)))
        loaded.compact()

    def test_similarity_archive_mislabelled_as_l2_rejected(
        self, corpus, tmp_path
    ):
        # A 9-row constants matrix can only be a similarity archive;
        # mislabelling it as l2 must fail loudly.
        data, _, _ = corpus
        path = tmp_path / "ip.rbq"
        save_searcher(_build("ip", data), path)
        bad = tmp_path / "mislabelled.rbq"
        _tamper(path, bad, meta={"metric": "l2"})
        with pytest.raises(PersistenceError, match="fused"):
            load_searcher(bad)


class TestMetricValidationAndDegenerate:
    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidParameterError):
            IVFQuantizedSearcher("rabitq", metric="dot")

    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_k_larger_than_live_set(self, corpus, metric):
        data, _, queries = corpus
        searcher = _build(metric, data[:30])
        result = searcher.search(queries[0], 50, nprobe=N_CLUSTERS)
        assert result.ids.shape[0] == 30
        assert np.all(np.diff(result.distances) <= 0.0)

    def test_cosine_zero_query(self, corpus):
        data, _, _ = corpus
        searcher = _build("cosine", data)
        result = searcher.search(np.zeros(DIM), 5, nprobe=3)
        assert result.ids.shape[0] == 5
        assert np.all(result.distances == 0.0)

    @pytest.mark.parametrize("metric", SIM_METRICS)
    def test_deleted_ids_never_returned(self, corpus, metric):
        data, _, queries = corpus
        searcher = _build(metric, data)
        gone = np.arange(0, N, 3)
        searcher.delete(gone)
        gone_set = set(gone.tolist())
        for query in queries[:4]:
            result = searcher.search(query, 12, nprobe=N_CLUSTERS)
            assert not (set(result.ids.tolist()) & gone_set)
