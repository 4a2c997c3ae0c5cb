"""Concurrency suite: concurrent queries are race-free and reproducible.

Contract under test (documented in ``repro/index/searcher.py``):

* ``search`` / ``search_batch`` may be called concurrently from several
  threads on one fitted searcher — scratch buffers and the rotation pad
  are thread-local, and probing reads an eagerly computed centroid-norm
  cache, so concurrent queries never share a mutable work area;
* every query is a pure read — the randomized rounding (on, as by
  default) reads one per-index vector and draws nothing — so concurrent
  results are bit-identical to serial execution in any interleaving.
  Each test runs under the error-bound re-ranker and under
  ``NoReranker``, where the answers are the estimates themselves.

Mutations (``insert`` / ``delete`` / ``compact``) are *not* read-safe and
must be externally synchronized with queries; that is out of scope here.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.index.rerank import ErrorBoundReranker, NoReranker
from repro.index.searcher import IVFQuantizedSearcher

N_THREADS = 8
N_ROUNDS = 6


@pytest.fixture(scope="module")
def concurrency_setup():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((500, 16))
    queries = rng.standard_normal((24, 16))
    return data, queries


def _searchers(data):
    """Default-config searchers: re-ranked answers, then raw estimates."""
    for reranker in (ErrorBoundReranker(), NoReranker()):
        yield IVFQuantizedSearcher(
            "rabitq", n_clusters=8, reranker=reranker, rng=0
        ).fit(data)


def _run_threads(n_threads, fn, args_list):
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [future.result() for future in futures]


def _assert_result_equal(got, want):
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)
    assert got.n_candidates == want.n_candidates
    assert got.n_exact == want.n_exact


class TestSingleSearcherConcurrency:
    def test_concurrent_search_bit_identical_to_serial(self, concurrency_setup):
        data, queries = concurrency_setup
        # Every thread answers every query, several rounds, in shuffled
        # per-thread orders — all results must equal the serial pass.
        orders = [
            np.random.default_rng(t).permutation(len(queries))
            for t in range(N_THREADS)
        ]
        for searcher in _searchers(data):
            serial = [searcher.search(q, 7, nprobe=4) for q in queries]

            def worker(order):
                out = {}
                for _ in range(N_ROUNDS):
                    for qi in order:
                        out[qi] = searcher.search(queries[qi], 7, nprobe=4)
                return out

            for result_map in _run_threads(
                N_THREADS, worker, [(o,) for o in orders]
            ):
                for qi, result in result_map.items():
                    _assert_result_equal(result, serial[qi])

    def test_concurrent_mixed_search_and_batch(self, concurrency_setup):
        data, queries = concurrency_setup
        for searcher in _searchers(data):
            serial = searcher.search_batch(queries, 5, nprobe=4)

            def batch_worker():
                return [
                    searcher.search_batch(queries, 5, nprobe=4)
                    for _ in range(N_ROUNDS)
                ]

            def single_worker():
                return [
                    [searcher.search(q, 5, nprobe=4) for q in queries]
                    for _ in range(N_ROUNDS)
                ]

            workers = [(batch_worker,), (single_worker,)] * (N_THREADS // 2)
            outputs = _run_threads(N_THREADS, lambda fn: fn(), workers)
            for rounds in outputs:
                for round_result in rounds:
                    for got, want in zip(round_result, serial):
                        _assert_result_equal(got, want)

