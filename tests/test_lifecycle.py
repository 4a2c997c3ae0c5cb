"""Equivalence harness for the mutable index lifecycle.

The lifecycle (``insert`` / ``delete`` / ``compact`` on
:class:`IVFQuantizedSearcher`) comes with three guarantees that these tests
enforce with hypothesis-generated data and mutation patterns:

1. **Incremental build quality** — ``fit(A)`` followed by ``insert(B)``
   reaches the same recall ballpark as ``fit(A ∪ B)``: inserted vectors are
   first-class citizens of the index, not an afterthought side table.  And
   how a batch is split does not matter: under a row-independent rotation,
   ``insert(X)`` equals inserting ``X`` in any parts, bit for bit.
2. **Deletion correctness** — tombstoned ids never appear in results, for
   any interleaving of deletes and compactions, including deleting every
   member of a cluster and asking for more neighbours than remain alive.
3. **Batch ≡ sequential under mutation** — after any interleaving of
   insert/delete/compact, :meth:`search_batch` stays element-wise identical
   (ids, distances *and* cost counters) to the per-query :meth:`search`
   loop.

As in ``test_batch_search.py``, equivalence checks compare two
independently built searchers with identical seeds and identical mutation
histories.  Search is pure, so one searcher would do for batch ≡
sequential; the twins also pin that ``fit`` and every insert / delete /
compact are deterministic — the same seeds and history must give the same
answers bit for bit.

Unlike the other property suites, these tests set no inline ``@settings``:
the example budget and deadline come from the active hypothesis profile
(see ``tests/conftest.py``), so the CI job's ``--hypothesis-profile=ci``
genuinely runs a deeper search than the tier-1 pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import RaBitQConfig
from repro.datasets.ground_truth import brute_force_ground_truth
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index.rerank import NoReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.metrics.recall import recall_at_k

def _build(data, n_clusters, *, compact_threshold=0.25, seed=3, rng=7):
    return IVFQuantizedSearcher(
        "rabitq",
        n_clusters=n_clusters,
        rabitq_config=RaBitQConfig(seed=seed),
        rng=rng,
        compact_threshold=compact_threshold,
    ).fit(data)


def _assert_batch_equals_sequential(batch, sequential):
    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.n_candidates == want.n_candidates
        assert got.n_exact == want.n_exact


class TestInsert:
    @given(
        data_seed=st.integers(0, 2**31 - 1),
        n_initial=st.integers(80, 200),
        n_inserted=st.integers(1, 120),
        dim=st.integers(6, 20),
        n_clusters=st.integers(2, 12),
    )
    def test_fit_plus_insert_matches_full_fit_recall(
        self, data_seed, n_initial, n_inserted, dim, n_clusters
    ):
        """``fit(A) + insert(B)`` ~ ``fit(A ∪ B)`` in recall, probing fully."""
        rng = np.random.default_rng(data_seed)
        part_a = rng.standard_normal((n_initial, dim))
        part_b = rng.standard_normal((n_inserted, dim))
        union = np.concatenate([part_a, part_b])
        queries = rng.standard_normal((6, dim))
        ground_truth = brute_force_ground_truth(union, queries, 5)

        incremental = _build(part_a, n_clusters)
        new_ids = incremental.insert(part_b)
        # ids continue positionally, so they coincide with rows of ``union``.
        np.testing.assert_array_equal(
            new_ids, np.arange(n_initial, n_initial + n_inserted)
        )
        full = _build(union, n_clusters)

        nprobe = n_clusters  # probe everything: isolate encoding quality
        incr_results = incremental.search_batch(queries, 5, nprobe=nprobe)
        full_results = full.search_batch(queries, 5, nprobe=nprobe)
        incr_recall = recall_at_k([r.ids for r in incr_results], ground_truth, 5)
        full_recall = recall_at_k([r.ids for r in full_results], ground_truth, 5)
        # With every cluster probed and error-bound re-ranking, both builds
        # recover (nearly) all true neighbours; the incremental build may
        # lose a little to the stale clustering, never more than this.
        assert incr_recall >= full_recall - 0.1
        assert incr_recall >= 0.85

    @given(seed=st.integers(0, 2**31 - 1))
    def test_insert_preserves_existing_estimates(self, seed):
        """Inserting must not move results for queries near old vectors."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((150, 10))
        extra = rng.standard_normal((30, 10)) + 50.0  # far away from data
        queries = rng.standard_normal((4, 10))
        plain = _build(data, 6)
        mutated = _build(data, 6)
        mutated.insert(extra)
        before = plain.search_batch(queries, 5, nprobe=6)
        after = mutated.search_batch(queries, 5, nprobe=6)
        # The far-away inserts share clusters but never win; ids and (exact,
        # re-ranked) distances of the winners are unchanged.
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.distances, want.distances)

    @given(
        seed=st.integers(0, 2**31 - 1),
        bits=st.sampled_from([1, 4]),
        n_new=st.integers(1, 60),
        data=st.data(),
    )
    def test_one_insert_equals_any_split(self, seed, bits, n_new, data):
        """``insert(X)`` ≡ inserting X in random parts, 1-row parts included.

        The Hadamard rotation is row-independent, so every row encodes to
        the same bits whatever batch it arrives in; the arena's live rows,
        the assignments and every answer must then agree bit for bit.
        """
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((120, 12))
        extra = rng.standard_normal((n_new, 12)) * 1.5
        queries = rng.standard_normal((4, 12))
        cut_after = data.draw(
            st.lists(st.booleans(), min_size=n_new - 1, max_size=n_new - 1)
        )
        cuts = [i + 1 for i, cut in enumerate(cut_after) if cut]

        def build():
            return IVFQuantizedSearcher(
                "rabitq",
                n_clusters=6,
                rabitq_config=RaBitQConfig(seed=3, rotation="hadamard"),
                rng=7,
                bits=bits,
                metric="l2",
                compact_threshold=None,
            ).fit(base)

        whole, split = build(), build()
        whole.insert(extra)
        for part in np.split(extra, cuts):
            split.insert(part)
        np.testing.assert_array_equal(split.ivf.assignments, whole.ivf.assignments)
        for name, array in whole.arena.dump_tight().items():
            np.testing.assert_array_equal(split.arena.dump_tight()[name], array)
        for reranker in (None, NoReranker()):
            if reranker is not None:
                whole.reranker = split.reranker = reranker
            _assert_batch_equals_sequential(
                split.search_batch(queries, 5, nprobe=3),
                list(whole.search_batch(queries, 5, nprobe=3)),
            )

    def test_insert_with_explicit_ids(self):
        rng = np.random.default_rng(0)
        searcher = _build(rng.standard_normal((90, 8)), 4)
        new_ids = searcher.insert(
            rng.standard_normal((3, 8)), ids=np.array([1000, 2000, 3000])
        )
        np.testing.assert_array_equal(new_ids, [1000, 2000, 3000])
        assert searcher.n_live == 93
        # Fresh auto-ids continue beyond the largest explicit id.
        auto = searcher.insert(rng.standard_normal((2, 8)))
        np.testing.assert_array_equal(auto, [3001, 3002])

    def test_insert_rejects_bad_ids(self):
        rng = np.random.default_rng(1)
        searcher = _build(rng.standard_normal((60, 8)), 4)
        with pytest.raises(InvalidParameterError):
            searcher.insert(rng.standard_normal((2, 8)), ids=np.array([7, 7]))
        with pytest.raises(InvalidParameterError):
            searcher.insert(rng.standard_normal((1, 8)), ids=np.array([5]))
        with pytest.raises(InvalidParameterError):
            searcher.insert(rng.standard_normal((2, 8)), ids=np.array([500]))

    def test_insert_requires_fit_and_rabitq(self):
        with pytest.raises(NotFittedError):
            IVFQuantizedSearcher("rabitq").insert(np.zeros((1, 4)))

    def test_insert_empty_is_noop(self):
        rng = np.random.default_rng(2)
        searcher = _build(rng.standard_normal((60, 8)), 4)
        assert searcher.insert(np.empty((0, 8))).shape == (0,)
        assert searcher.n_live == 60


class TestDelete:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_data=st.integers(60, 180),
        dim=st.integers(5, 16),
        n_clusters=st.integers(2, 10),
        delete_fraction=st.floats(0.05, 0.9),
        k=st.integers(1, 40),
    )
    def test_deleted_ids_never_returned(
        self, seed, n_data, dim, n_clusters, delete_fraction, k
    ):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n_data, dim))
        queries = rng.standard_normal((5, dim))
        searcher = _build(data, n_clusters, compact_threshold=None)
        doomed = rng.choice(n_data, size=max(1, int(delete_fraction * n_data)),
                            replace=False)
        assert searcher.delete(doomed) == doomed.shape[0]
        assert searcher.n_deleted == doomed.shape[0]
        results = searcher.search_batch(queries, k, nprobe=n_clusters)
        doomed_set = set(doomed.tolist())
        live_set = set(searcher.live_ids.tolist())
        for result in results:
            returned = result.ids.tolist()
            assert not doomed_set.intersection(returned)
            assert set(returned) <= live_set
            assert result.ids.shape[0] == min(k, searcher.n_live)

    def test_delete_whole_cluster_and_k_exceeding_live(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((80, 8))
        queries = rng.standard_normal((4, 8))
        searcher = _build(data, 5, compact_threshold=None)
        reference = _build(data, 5, compact_threshold=None)
        # Wipe out cluster 0 entirely, and most of the rest of the index.
        cluster0 = searcher.ivf.buckets[0].vector_ids.copy()
        searcher.delete(cluster0)
        reference.delete(cluster0)
        survivors = searcher.live_ids
        to_delete = survivors[: max(0, survivors.shape[0] - 3)]
        searcher.delete(to_delete)
        reference.delete(to_delete)
        assert searcher.n_live == min(3, survivors.shape[0])
        # k far beyond the number of live candidates.
        batch = searcher.search_batch(queries, 50, nprobe=5)
        sequential = [reference.search(q, 50, nprobe=5) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)
        live_set = set(searcher.live_ids.tolist())
        for result in batch:
            assert result.ids.shape[0] <= len(live_set)
            assert set(result.ids.tolist()) <= live_set

    def test_delete_everything_returns_empty(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((50, 8))
        searcher = _build(data, 4, compact_threshold=None)
        searcher.delete(np.arange(50))
        assert searcher.n_live == 0
        result = searcher.search(rng.standard_normal(8), 5, nprobe=4)
        assert result.ids.shape == (0,)
        assert result.n_candidates == 0 and result.n_exact == 0

    def test_delete_unknown_id_raises(self):
        rng = np.random.default_rng(7)
        searcher = _build(rng.standard_normal((40, 8)), 4)
        with pytest.raises(InvalidParameterError):
            searcher.delete([999])
        searcher.delete([3])
        with pytest.raises(InvalidParameterError):
            searcher.delete([3])  # already gone

    def test_duplicate_ids_in_one_request_collapse(self):
        rng = np.random.default_rng(8)
        searcher = _build(rng.standard_normal((40, 8)), 4)
        assert searcher.delete(np.array([5, 5, 5])) == 1
        assert searcher.n_deleted == 1


class TestCompact:
    def test_compact_preserves_results_exactly(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((200, 12))
        extra = rng.standard_normal((40, 12))
        queries = rng.standard_normal((6, 12))
        doomed = np.arange(0, 120, 4)

        def mutate(searcher, compact):
            searcher.insert(extra)
            searcher.delete(doomed)
            if compact:
                assert searcher.compact() == doomed.shape[0]
            return searcher

        lazy = mutate(_build(data, 8, compact_threshold=None), compact=False)
        compacted = mutate(_build(data, 8, compact_threshold=None), compact=True)
        assert compacted.n_total == compacted.n_live == lazy.n_live
        batch_lazy = lazy.search_batch(queries, 10, nprobe=8)
        batch_compact = compacted.search_batch(queries, 10, nprobe=8)
        _assert_batch_equals_sequential(batch_compact, list(batch_lazy))

    def test_auto_compaction_triggers_at_threshold(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((100, 8))
        searcher = _build(data, 4, compact_threshold=0.25)
        searcher.delete(np.arange(24))  # 24% dead: below threshold
        assert searcher.n_deleted == 24 and searcher.n_total == 100
        searcher.delete([24])  # 25% dead: compaction fires
        assert searcher.n_deleted == 0
        assert searcher.n_total == searcher.n_live == 75

    def test_compact_on_clean_index_is_noop(self):
        rng = np.random.default_rng(11)
        searcher = _build(rng.standard_normal((40, 8)), 4)
        assert searcher.compact() == 0


class TestMutatedBatchEquivalence:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_data=st.integers(60, 160),
        dim=st.integers(5, 16),
        n_clusters=st.integers(2, 10),
        n_inserted=st.integers(0, 50),
        n_queries=st.integers(1, 6),
        k=st.integers(1, 30),
        nprobe=st.integers(1, 12),
        compact=st.booleans(),
    )
    def test_batch_identical_after_mutation(
        self, seed, n_data, dim, n_clusters, n_inserted, n_queries, k, nprobe,
        compact,
    ):
        """Insert + delete (+ compact) then: search_batch ≡ search loop."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n_data, dim))
        extra = rng.standard_normal((n_inserted, dim))
        queries = rng.standard_normal((n_queries, dim))
        doomed = rng.choice(n_data, size=n_data // 3, replace=False)

        def mutate(searcher):
            if n_inserted:
                searcher.insert(extra)
            searcher.delete(doomed)
            if compact:
                searcher.compact()
            return searcher

        batch_searcher = mutate(_build(data, n_clusters, compact_threshold=None))
        seq_searcher = mutate(_build(data, n_clusters, compact_threshold=None))
        batch = batch_searcher.search_batch(queries, k, nprobe=nprobe)
        sequential = [seq_searcher.search(q, k, nprobe=nprobe) for q in queries]
        _assert_batch_equals_sequential(batch, sequential)
        doomed_set = set(doomed.tolist())
        for result in batch:
            assert not doomed_set.intersection(result.ids.tolist())
