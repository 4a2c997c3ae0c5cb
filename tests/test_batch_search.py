"""Equivalence tests for the vectorized batch query engine.

The batch path (:meth:`IVFQuantizedSearcher.search_batch` and the batched
kernels underneath it) is advertised as *element-wise identical* to the
per-query loop — not merely close.  These tests enforce that guarantee with
hypothesis-generated data/queries/parameters, including the empty-cluster
and ``k > n_candidates`` edge cases, and pin the exactness of every batched
layer (popcount kernel, distance estimation, probing) against its per-query
calls.

Search is a pure function of (index, query) — randomized rounding reads one
per-index vector and draws nothing — so a query's answer does not depend on
what it is batched with, its row, or what was asked before
(``test_pure_under_permutation_and_splitting``).  Most tests here still
compare two independently built same-seed searchers, which additionally
pins that building is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops
from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.index.rerank import NoReranker
from repro.index.searcher import BatchSearchResult, IVFQuantizedSearcher, SearchResult

_SETTINGS = dict(max_examples=12, deadline=None)


def _build_rabitq_searcher(data: np.ndarray, n_clusters: int, **kwargs):
    return IVFQuantizedSearcher(
        "rabitq",
        n_clusters=n_clusters,
        rabitq_config=RaBitQConfig(seed=3),
        rng=7,
        **kwargs,
    ).fit(data)


def _assert_batch_equals_sequential(batch, sequential):
    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.n_candidates == want.n_candidates
        assert got.n_exact == want.n_exact


class TestBatchSearchEquivalence:
    @given(
        data_seed=st.integers(0, 2**31 - 1),
        n_data=st.integers(60, 260),
        dim=st.integers(4, 24),
        n_queries=st.integers(1, 8),
        k=st.integers(1, 60),
        nprobe=st.integers(1, 24),
        n_clusters=st.integers(2, 20),
    )
    @settings(**_SETTINGS)
    def test_identical_to_per_query_loop(
        self, data_seed, n_data, dim, n_queries, k, nprobe, n_clusters
    ):
        rng = np.random.default_rng(data_seed)
        data = rng.standard_normal((n_data, dim))
        queries = rng.standard_normal((n_queries, dim))
        batch_searcher = _build_rabitq_searcher(data, n_clusters)
        seq_searcher = _build_rabitq_searcher(data, n_clusters)
        batch = batch_searcher.search_batch(queries, k, nprobe=nprobe)
        sequential = [seq_searcher.search(q, k, nprobe=nprobe) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(**_SETTINGS)
    def test_pure_under_permutation_and_splitting(self, seed):
        # Default config, raw estimates (NoReranker): a batch, a permutation
        # of its rows and an arbitrary split into sub-batches all give each
        # query the answer ``search`` gives it alone — asked twice.
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((int(rng.integers(60, 200)), 10))
        queries = rng.standard_normal((int(rng.integers(2, 9)), 10))
        k, nprobe = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        searcher = IVFQuantizedSearcher(
            "rabitq", n_clusters=8, reranker=NoReranker(), rng=7
        ).fit(data)
        alone = [searcher.search(q, k, nprobe=nprobe) for q in queries]
        again = [searcher.search(q, k, nprobe=nprobe) for q in queries]
        _assert_batch_equals_sequential(again, alone)
        _assert_batch_equals_sequential(
            searcher.search_batch(queries, k, nprobe=nprobe), alone
        )
        order = rng.permutation(len(queries))
        _assert_batch_equals_sequential(
            searcher.search_batch(queries[order], k, nprobe=nprobe),
            [alone[i] for i in order],
        )
        cuts = np.flatnonzero(rng.integers(0, 2, size=len(queries) - 1)) + 1
        pieces = [
            result
            for part in np.split(queries, cuts)
            for result in searcher.search_batch(part, k, nprobe=nprobe)
        ]
        _assert_batch_equals_sequential(pieces, alone)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(**_SETTINGS)
    def test_identical_with_empty_clusters(self, seed):
        # Duplicated points force kmeans to leave clusters empty; the batch
        # path must skip them exactly like the sequential path does.
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((6, 8))
        data = np.repeat(base, 8, axis=0)
        queries = rng.standard_normal((4, 8))
        batch_searcher = _build_rabitq_searcher(data, n_clusters=16)
        seq_searcher = _build_rabitq_searcher(data, n_clusters=16)
        assert any(len(b) == 0 for b in batch_searcher.ivf.buckets)
        batch = batch_searcher.search_batch(queries, 5, nprobe=16)
        sequential = [seq_searcher.search(q, 5, nprobe=16) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)

    def test_identical_when_k_exceeds_candidates(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((80, 10))
        queries = rng.standard_normal((5, 10))
        batch_searcher = _build_rabitq_searcher(data, n_clusters=16)
        seq_searcher = _build_rabitq_searcher(data, n_clusters=16)
        # nprobe=1 gives only one small cluster of candidates, far fewer
        # than the requested k.
        batch = batch_searcher.search_batch(queries, 50, nprobe=1)
        sequential = [seq_searcher.search(q, 50, nprobe=1) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)
        assert all(r.ids.shape[0] <= 50 for r in batch)

    def test_identical_with_no_reranker(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((150, 12))
        queries = rng.standard_normal((6, 12))
        batch_searcher = _build_rabitq_searcher(
            data, n_clusters=10, reranker=NoReranker()
        )
        seq_searcher = _build_rabitq_searcher(
            data, n_clusters=10, reranker=NoReranker()
        )
        batch = batch_searcher.search_batch(queries, 8, nprobe=4)
        sequential = [seq_searcher.search(q, 8, nprobe=4) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)

    def test_query_chunking_preserves_results(self, monkeypatch):
        import repro.index.searcher as searcher_module

        rng = np.random.default_rng(41)
        data = rng.standard_normal((200, 10))
        queries = rng.standard_normal((9, 10))
        full = _build_rabitq_searcher(data, n_clusters=8).search_batch(
            queries, 5, nprobe=4
        )
        # Force several query chunks; no answer depends on its chunk.
        monkeypatch.setattr(searcher_module, "_SEARCH_BATCH_MAX_PAIRS", 1)
        chunked = _build_rabitq_searcher(data, n_clusters=8).search_batch(
            queries, 5, nprobe=4
        )
        _assert_batch_equals_sequential(chunked, list(full))

    def test_batched_first_chunk_matches_sequential(self, monkeypatch):
        # Lists of ~700 candidates take the reranker's batched first chunk
        # (the fixtures above rarely exceed its 64 candidates).  Some rows
        # are deleted, and a small pair cap makes calls of 16-22 queries: one
        # full block of 16 and rows past it.
        import repro.index.searcher as searcher_module

        rng = np.random.default_rng(29)
        data = rng.standard_normal((2400, 16))
        queries = rng.standard_normal((60, 16))
        monkeypatch.setattr(searcher_module, "_SEARCH_BATCH_MAX_PAIRS", 18000)
        n_exact = []
        for bits in (1, 4):
            searcher = _build_rabitq_searcher(data, n_clusters=12, bits=bits)
            searcher.delete(np.arange(0, 2400, 9))
            batch = searcher.search_batch(queries, 10, nprobe=4)
            sequential = [searcher.search(q, 10, nprobe=4) for q in queries]
            _assert_batch_equals_sequential(batch, sequential)
            n_exact.extend(batch.n_exact.tolist())
        # Rows that stop after the first chunk and rows that continue.
        assert 64 in n_exact
        assert max(n_exact) > 64

    def test_duplicate_query_rows(self):
        # Identical rows get identical answers, as in the sequential loop.
        rng = np.random.default_rng(19)
        data = rng.standard_normal((120, 8))
        query = rng.standard_normal(8)
        queries = np.tile(query, (3, 1))
        batch_searcher = _build_rabitq_searcher(data, n_clusters=8)
        seq_searcher = _build_rabitq_searcher(data, n_clusters=8)
        batch = batch_searcher.search_batch(queries, 4, nprobe=3)
        sequential = [seq_searcher.search(q, 4, nprobe=3) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)

    def test_estimate_calls_per_search_call(self, monkeypatch):
        # One query, through search() or a one-row search_batch(), is one
        # paired kernel call over all its probed codes; several queries make
        # one call per probed cluster group.
        import repro.index.searcher as searcher_module

        rng = np.random.default_rng(23)
        data = rng.standard_normal((300, 12))
        queries = rng.standard_normal((2, 12))
        searcher = _build_rabitq_searcher(data, n_clusters=8)
        probes = searcher.ivf.probe_batch(queries, 4)
        assert (searcher.arena.sizes[probes] > 0).all()
        estimate_codes = searcher_module.estimate_codes
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("segments"))
            return estimate_codes(*args, **kwargs)

        monkeypatch.setattr(searcher_module, "estimate_codes", counting)
        searcher.search(queries[0], 5, nprobe=4)
        assert len(calls) == 1 and calls[0] is not None
        calls.clear()
        searcher.search_batch(queries[:1], 5, nprobe=4)
        assert len(calls) == 1 and calls[0] is not None
        calls.clear()
        searcher.search_batch(queries, 5, nprobe=4)
        assert len(calls) == np.unique(probes).shape[0]
        assert all(segments is None for segments in calls)


class TestBatchSearchResult:
    @pytest.fixture(scope="class")
    def batch_result(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal((150, 10))
        queries = rng.standard_normal((7, 10))
        searcher = _build_rabitq_searcher(data, n_clusters=8)
        return searcher.search_batch(queries, 5, nprobe=4)

    def test_len_and_getitem(self, batch_result):
        assert len(batch_result) == 7
        item = batch_result[2]
        assert isinstance(item, SearchResult)
        np.testing.assert_array_equal(item.ids, batch_result.ids[2])

    def test_iteration_yields_search_results(self, batch_result):
        items = list(batch_result)
        assert len(items) == 7
        assert all(isinstance(r, SearchResult) for r in items)

    def test_aggregate_counters(self, batch_result):
        assert batch_result.total_candidates == int(batch_result.n_candidates.sum())
        assert batch_result.total_exact == int(batch_result.n_exact.sum())
        assert batch_result.total_exact <= batch_result.total_candidates

    def test_empty_batch(self):
        rng = np.random.default_rng(29)
        data = rng.standard_normal((60, 6))
        searcher = _build_rabitq_searcher(data, n_clusters=4)
        result = searcher.search_batch(np.empty((0, 6)), 3)
        assert isinstance(result, BatchSearchResult)
        assert len(result) == 0
        assert result.total_candidates == 0 and result.total_exact == 0


class TestBatchedLayers:
    """Exactness of each batched layer against its per-query calls."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_codes=st.integers(1, 40),
        n_queries=st.integers(1, 5),
        n_bits=st.integers(1, 5),
        n_words=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_dot_uint_batch_matches_per_query(
        self, seed, n_codes, n_queries, n_bits, n_words
    ):
        rng = np.random.default_rng(seed)
        n_dims = n_words * 64
        codes = bitops.pack_bits(rng.integers(0, 2, (n_codes, n_dims)).astype(np.uint8))
        values = rng.integers(0, 1 << n_bits, (n_queries, n_dims)).astype(np.uint64)
        planes = bitops.bitplanes_from_uint_batch(values, n_bits)
        batch = bitops.binary_dot_uint_batch(codes, planes)
        assert batch.shape == (n_queries, n_codes)
        for i in range(n_queries):
            np.testing.assert_array_equal(
                batch[i], bitops.binary_dot_uint_batch(codes, planes[i])[0]
            )

    @given(
        seed=st.integers(0, 2**31 - 1),
        compute=st.sampled_from(["bitwise", "float"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_estimate_distances_batch_matches_per_query(self, seed, compute):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((90, 14))
        queries = rng.standard_normal((4, 14))
        batch_q = RaBitQ(RaBitQConfig(seed=5)).fit(data)
        single_q = RaBitQ(RaBitQConfig(seed=5)).fit(data)
        batch = batch_q.estimate_distances_batch(queries, compute=compute)
        assert batch.distances.shape == (4, 90)
        for i in range(4):
            single = single_q.estimate_distances(queries[i], compute=compute)
            np.testing.assert_array_equal(batch.distances[i], single.distances)
            np.testing.assert_array_equal(batch.lower_bounds[i], single.lower_bounds)
            np.testing.assert_array_equal(batch.upper_bounds[i], single.upper_bounds)
            np.testing.assert_array_equal(
                batch.inner_products[i], single.inner_products
            )

    def test_estimate_distances_batch_subset(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((70, 10))
        queries = rng.standard_normal((3, 10))
        subset = np.array([3, 9, 12, 40])
        batch_q = RaBitQ(RaBitQConfig(seed=5)).fit(data)
        single_q = RaBitQ(RaBitQConfig(seed=5)).fit(data)
        batch = batch_q.estimate_distances_batch(queries, subset=subset)
        assert batch.distances.shape == (3, 4)
        for i in range(3):
            single = single_q.estimate_distances(queries[i], subset=subset)
            np.testing.assert_array_equal(batch.distances[i], single.distances)

    def test_probe_batch_matches_probe(self):
        rng = np.random.default_rng(37)
        data = rng.standard_normal((300, 9))
        queries = rng.standard_normal((10, 9))
        searcher = _build_rabitq_searcher(data, n_clusters=12)
        probes = searcher.ivf.probe_batch(queries, 5)
        assert probes.shape == (10, 5)
        for i in range(10):
            np.testing.assert_array_equal(probes[i], searcher.ivf.probe(queries[i], 5))
