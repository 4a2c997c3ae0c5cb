"""Arena-backed search vs. the pre-arena reference implementation.

The contract of the code-arena refactor is that it changed the *layout* of
the hot path, never its answers: ``search`` / ``search_batch`` must be
element-wise identical — ids, distances and cost counters — to the former
per-cluster-quantizer implementation at every point of the index lifecycle.

``PreArenaReference`` below is a literal port of that former implementation:
one :class:`repro.core.quantizer.RaBitQ` object per cluster (rebuilt from
the arena state, sharing the searcher's rounding vector) and the per-cluster
``estimate_distances`` + concatenation estimation loop.  Its re-ranking is
the plain reference shared with ``test_rerank.py``
(``tests/rerank_reference.py``: full sort, heap).  The
hypothesis suite drives a searcher through random
``fit -> insert -> delete -> compact -> save/load`` interleavings and
checks both entry points — and the raw estimates under them, which the
re-ranked answers alone would not pin — against the reference at every
checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    CONST_ALIGN,
    CONST_NORM,
    CONST_POPCOUNT,
    DistanceEstimate,
    build_code_consts,
)
from repro.core.quantizer import RaBitQ
from repro.index.arena import CodeArena
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import load_searcher, save_searcher

from rerank_reference import reference_rerank_l2


class PreArenaReference:
    """Snapshot of a searcher as the pre-arena implementation stored it.

    Rebuilds one ``RaBitQ`` object per non-empty cluster from the arena
    regions (the arena's packed codes, popcounts, alignments, norms; every
    other constant re-derived by ``build_code_consts``) and gives each the
    searcher's rounding vector, then answers queries with the former
    per-cluster estimation loop and the reference re-ranker.
    """

    def __init__(self, searcher: IVFQuantizedSearcher) -> None:
        arena = searcher.arena
        self._searcher = searcher
        self._ivf = searcher.ivf
        self._flat = searcher.flat
        self._live = searcher._live.copy()
        self._ids = searcher._ids.copy()
        self._quantizers: list[RaBitQ | None] = []
        for cid in range(arena.n_clusters):
            start, end = arena.cluster_range(cid)
            if start == end:
                self._quantizers.append(None)
                continue
            consts = arena.consts[:, start:end]
            # Only the stored rows are taken; the derived rows are rebuilt.
            rebuilt = build_code_consts(
                consts[CONST_ALIGN].copy(),
                consts[CONST_NORM].copy(),
                consts[CONST_POPCOUNT].astype(np.int64),
                arena.code_length,
                searcher.rabitq_config.epsilon0,
            )
            quantizer = RaBitQ(searcher.rabitq_config)
            quantizer._rotation = searcher._shared_rotation
            quantizer._arena = CodeArena.from_sections(
                arena.code_length,
                rebuilt.shape[0],
                codes=arena.codes[start:end].copy(),
                consts=rebuilt,
                slots=np.arange(end - start, dtype=np.int64),
                sizes=np.array([end - start]),
            )
            quantizer._centroid = self._ivf.centroids[cid]
            quantizer._rounding_offsets = searcher._rounding_offsets
            self._quantizers.append(quantizer)

    def _estimate(self, query, cluster_ids):
        """The pre-arena ``_estimate_rabitq``, ported verbatim."""
        live = self._live
        id_blocks, dist_blocks = [], []
        lower_blocks, upper_blocks, ip_blocks = [], [], []
        for cid in cluster_ids:
            bucket = self._ivf.buckets[int(cid)]
            quantizer = self._quantizers[int(cid)]
            if quantizer is None or len(bucket) == 0:
                continue
            estimate = quantizer.estimate_distances(query)
            mask = live[bucket.vector_ids]
            if mask.all():
                id_blocks.append(bucket.vector_ids)
                dist_blocks.append(estimate.distances)
                lower_blocks.append(estimate.lower_bounds)
                upper_blocks.append(estimate.upper_bounds)
                ip_blocks.append(estimate.inner_products)
                continue
            if not mask.any():
                continue
            id_blocks.append(bucket.vector_ids[mask])
            dist_blocks.append(estimate.distances[mask])
            lower_blocks.append(estimate.lower_bounds[mask])
            upper_blocks.append(estimate.upper_bounds[mask])
            ip_blocks.append(estimate.inner_products[mask])
        if not id_blocks:
            empty = np.empty(0, dtype=np.float64)
            return np.empty(0, dtype=np.int64), DistanceEstimate(
                distances=empty,
                lower_bounds=empty.copy(),
                upper_bounds=empty.copy(),
                inner_products=empty.copy(),
            )
        return np.concatenate(id_blocks), DistanceEstimate(
            distances=np.concatenate(dist_blocks),
            lower_bounds=np.concatenate(lower_blocks),
            upper_bounds=np.concatenate(upper_blocks),
            inner_products=np.concatenate(ip_blocks),
        )

    def search(self, query, k, *, nprobe):
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        cluster_ids = self._ivf.probe(vec, nprobe)
        candidate_ids, estimate = self._estimate(vec, cluster_ids)
        ids, dists, n_exact = reference_rerank_l2(
            vec, candidate_ids, estimate, self._flat, k
        )
        return (
            self._ids[np.asarray(ids, dtype=np.intp)],
            dists,
            int(candidate_ids.shape[0]),
            n_exact,
        )


def _assert_matches_reference(searcher, queries, k, nprobe):
    """Sequential and batch answers, and the estimates, equal the reference's."""
    reference = PreArenaReference(searcher)
    expected = [reference.search(q, k, nprobe=nprobe) for q in queries]
    batch = searcher.search_batch(queries, k, nprobe=nprobe)
    sequential = [searcher.search(q, k, nprobe=nprobe) for q in queries]
    for answers in (batch, sequential):
        for got, (ids, dists, n_cand, n_exact) in zip(answers, expected):
            np.testing.assert_array_equal(got.ids, ids)
            np.testing.assert_array_equal(got.distances, dists)
            assert got.n_candidates == n_cand
            assert got.n_exact == n_exact
    # The re-ranked answers above are exact distances of the winners; the
    # estimates themselves are compared here, field by field.
    for query in queries:
        cluster_ids = searcher.ivf.probe(query, nprobe)
        got_ids, got = searcher._estimate_rabitq(query, cluster_ids)
        want_ids, want = reference._estimate(query, cluster_ids)
        np.testing.assert_array_equal(got_ids, want_ids)
        for field in (
            "distances", "lower_bounds", "upper_bounds", "inner_products"
        ):
            np.testing.assert_array_equal(
                getattr(got, field), getattr(want, field), err_msg=field
            )


@pytest.fixture(scope="module")
def base_data():
    rng = np.random.default_rng(123)
    return rng.standard_normal((160, 12))


class TestReferenceEquivalenceDeterministic:
    def test_after_fit(self, base_data):
        rng = np.random.default_rng(1)
        searcher = IVFQuantizedSearcher(
            "rabitq", n_clusters=8, rabitq_config=RaBitQConfig(seed=0), rng=0
        ).fit(base_data)
        _assert_matches_reference(
            searcher, rng.standard_normal((6, 12)), k=5, nprobe=4
        )

    def test_full_lifecycle(self, base_data, tmp_path):
        rng = np.random.default_rng(2)
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=8,
            rabitq_config=RaBitQConfig(seed=3),
            rng=7,
            compact_threshold=None,
        ).fit(base_data)
        searcher.insert(rng.standard_normal((40, 12)))
        _assert_matches_reference(
            searcher, rng.standard_normal((4, 12)), k=5, nprobe=6
        )
        searcher.delete(np.arange(0, 120, 3))
        _assert_matches_reference(
            searcher, rng.standard_normal((4, 12)), k=7, nprobe=8
        )
        searcher.compact()
        _assert_matches_reference(
            searcher, rng.standard_normal((4, 12)), k=7, nprobe=8
        )
        path = tmp_path / "roundtrip.npz"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        _assert_matches_reference(
            loaded, rng.standard_normal((4, 12)), k=3, nprobe=5
        )

    def test_hadamard_rotation(self, base_data):
        rng = np.random.default_rng(3)
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=6,
            rabitq_config=RaBitQConfig(seed=1, rotation="hadamard"),
            rng=2,
        ).fit(base_data)
        _assert_matches_reference(
            searcher, rng.standard_normal((4, 12)), k=5, nprobe=6
        )


_OPS = st.lists(
    st.sampled_from(["insert", "delete", "compact", "roundtrip", "check"]),
    min_size=1,
    max_size=5,
)


class TestReferenceEquivalenceHypothesis:
    @given(ops=_OPS, seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=15)
    def test_lifecycle_interleavings(self, ops, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((90, 8))
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=6,
            rabitq_config=RaBitQConfig(seed=seed % 7),
            rng=seed % 11,
            compact_threshold=None,
        ).fit(data)
        for op in ops:
            if op == "insert":
                searcher.insert(rng.standard_normal((int(rng.integers(1, 15)), 8)))
            elif op == "delete":
                live = searcher.live_ids
                if live.shape[0] > 5:
                    kill = rng.choice(
                        live, size=int(rng.integers(1, live.shape[0] // 2)),
                        replace=False,
                    )
                    searcher.delete(kill)
            elif op == "compact":
                searcher.compact()
            elif op == "roundtrip":
                path = tmp_path_factory.mktemp("eq") / "s.npz"
                save_searcher(searcher, path)
                searcher = load_searcher(path)
            else:
                _assert_matches_reference(
                    searcher,
                    rng.standard_normal((3, 8)),
                    k=int(rng.integers(1, 8)),
                    nprobe=int(rng.integers(1, 7)),
                )
        _assert_matches_reference(
            searcher, rng.standard_normal((3, 8)), k=4, nprobe=6
        )
