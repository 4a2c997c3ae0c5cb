"""Quickstart: quantize vectors with RaBitQ and estimate distances.

This example mirrors the paper's Algorithm 1 (index phase) and Algorithm 2
(query phase) on a small synthetic dataset:

1. fit the quantizer (normalize, rotate, store D-bit codes and per-vector
   metadata),
2. estimate squared distances from a query to every stored vector,
3. compare the estimates (and their confidence intervals) with the exact
   distances,
4. estimate distances for a whole *batch* of queries at once with
   ``estimate_distances_batch``,
5. run the full mutable index lifecycle: build an ``IVFQuantizedSearcher``,
   ``insert`` new vectors (encoded incrementally against the fitted
   rotation and centroids), ``delete`` vectors by id (tombstones +
   automatic compaction), and ``save_searcher`` / ``load_searcher`` the
   whole thing — a reloaded searcher answers queries *bit-identically*
   (the randomized-rounding vector is part of the index, like the rotation).

The searcher stores its codes in a contiguous *code arena* — one
cluster-grouped packed code matrix plus one fused matrix of per-code
estimator constants — so probing clusters yields contiguous array slices
and estimation runs as one integer inner-product pass plus one fused
affine transform (see ``benchmarks/README.md`` for the layout, the
archive format, and ``benchmarks/run_bench.py`` for the tracked
single-query/batch QPS trajectory in ``BENCH_ann.json``).

When to batch: ``estimate_distances`` answers one query; whenever several
queries are available together (offline evaluation, multi-user serving),
``estimate_distances_batch`` — and, at the index level,
``IVFQuantizedSearcher.search_batch`` — amortizes query preparation and
scans each code matrix once per batch, typically several times faster while
returning element-wise identical estimates.

Which metric: everything below serves squared-L2 (the paper's setting),
but the same stack serves maximum-inner-product (MIPS) and cosine traffic
— pass ``metric="ip"`` or ``metric="cosine"`` to ``IVFQuantizedSearcher``
and probing, estimation bounds and re-ranking all follow the metric
(results then report similarity scores, descending).  See
``examples/mips_search.py`` and the "Metric selection" section of
``benchmarks/README.md``; archives record the metric.

Serving live traffic: concurrent single queries coalesce into
``search_batch`` micro-batches through ``repro.serving.ServingEngine`` —
bounded-queue admission control, per-request deadlines with adaptive
``nprobe`` degradation, exact p50/p95/p99 latency tracking, and answers
proven bit-identical to sequential ``search`` — see
``examples/online_serving.py`` and the "Online serving" section of
``benchmarks/README.md``.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import RaBitQ, RaBitQConfig, load_searcher, save_searcher
from repro.core.estimator import CONST_ALIGN
from repro.index.searcher import IVFQuantizedSearcher
from _example_scale import scaled as _scaled


def main() -> None:
    rng = np.random.default_rng(0)
    n_vectors, dim = _scaled(5000), 128

    print(f"Generating {n_vectors} random vectors of dimension {dim} ...")
    data = rng.standard_normal((n_vectors, dim))
    query = rng.standard_normal(dim)

    # Index phase: the paper's defaults (epsilon_0 = 1.9, B_q = 4, code
    # length = D rounded up to a multiple of 64).
    config = RaBitQConfig(seed=0)
    quantizer = RaBitQ(config).fit(data)
    arena = quantizer.arena
    print(f"Quantization code length : {quantizer.code_length} bits")
    print(f"Compression vs float32   : {quantizer.compression_ratio():.1f}x")
    print(f"Index memory             : {arena.memory_bytes() / 1024:.1f} KiB "
          f"(raw vectors: {data.astype(np.float32).nbytes / 1024:.1f} KiB)")
    print(f"Mean <o_bar, o> alignment: {arena.consts[CONST_ALIGN].mean():.4f} "
          "(theory predicts ~0.8)")

    # Query phase: estimate the squared distances — the same fused pipeline
    # (integer dot of the quantized query, affine undo, fused estimator) an
    # IVF searcher runs on every probed cluster.
    estimate = quantizer.estimate_distances(query)
    exact = ((data - query) ** 2).sum(axis=1)
    relative_error = np.abs(estimate.distances - exact) / exact
    print(f"\nAverage relative error   : {relative_error.mean() * 100:.2f}%")
    print(f"Maximum relative error   : {relative_error.max() * 100:.2f}%")

    coverage = (
        (exact >= estimate.lower_bounds) & (exact <= estimate.upper_bounds)
    ).mean()
    print(f"Confidence-interval coverage (epsilon_0 = {config.epsilon0}): "
          f"{coverage * 100:.1f}%")

    # The estimates are good enough to shortlist nearest-neighbour candidates.
    true_nn = int(np.argmin(exact))
    estimated_ranking = np.argsort(estimate.distances)
    rank_of_true_nn = int(np.where(estimated_ranking == true_nn)[0][0])
    print(f"\nTrue nearest neighbour id: {true_nn}")
    print(f"Its rank under the estimated distances: {rank_of_true_nn} "
          "(0 means the estimate already ranks it first)")

    # Batch query phase: one call estimates distances for many queries at
    # once — the (n_queries, n_vectors) matrix is computed by a vectorized
    # multi-query kernel instead of a Python loop.
    queries = rng.standard_normal((64, dim))
    batch_estimate = quantizer.estimate_distances_batch(queries)
    print(f"\nBatch of {queries.shape[0]} queries -> estimate matrix of shape "
          f"{batch_estimate.distances.shape}")
    batch_exact = ((data[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2)
    batch_error = np.abs(batch_estimate.distances - batch_exact) / batch_exact
    print(f"Average relative error across the batch: "
          f"{batch_error.mean() * 100:.2f}%")

    # Index lifecycle: a real deployment inserts and deletes vectors after
    # the initial build, and restarts from disk without re-encoding.
    print("\n--- Mutable index lifecycle (insert / delete / save / load) ---")
    searcher = IVFQuantizedSearcher(
        "rabitq", n_clusters=64, rabitq_config=config, rng=0
    ).fit(data)
    print(f"Fitted searcher over {searcher.n_live} vectors "
          f"(ids 0 .. {searcher.n_live - 1})")
    arena = searcher.arena
    print(f"Code arena: {arena.n_rows} codes in {arena.n_clusters} "
          f"contiguous cluster regions, "
          f"{arena.memory_bytes() / 1024:.1f} KiB "
          "(packed D-bit codes + fused constants + slot ids)")

    # Insert: nearest-centroid assignment + incremental RaBitQ encoding
    # against the fitted rotation; nothing already stored is re-encoded.
    new_vectors = rng.standard_normal((100, dim))
    new_ids = searcher.insert(new_vectors)
    print(f"Inserted {new_ids.shape[0]} vectors -> ids "
          f"{new_ids[0]} .. {new_ids[-1]}")

    # Delete: tombstones take effect immediately; storage is reclaimed by
    # compact(), which runs automatically at the configured threshold.
    searcher.delete(new_ids[:50])
    print(f"Deleted 50 of them: live={searcher.n_live}, "
          f"tombstoned={searcher.n_deleted}")

    # Persistence: the archive captures codes, centroids, raw vectors,
    # tombstones, the id mapping, the rotation and the rounding vector, so
    # the reloaded searcher answers *bit-identically* — whenever the save
    # happened: querying draws no randomness and changes no index state.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "searcher.rbq"
        save_searcher(searcher, path)
        restored = load_searcher(path)
        print(f"Saved {path.stat().st_size / 1024:.1f} KiB archive and "
              f"reloaded it")
        result = searcher.search(query, 5, nprobe=16)
        again = restored.search(query, 5, nprobe=16)
        print(f"Original searcher top-5 ids: {result.ids.tolist()}")
        print(f"Reloaded searcher top-5 ids: {again.ids.tolist()} "
              f"(identical: "
              f"{np.array_equal(result.ids, again.ids) and np.array_equal(result.distances, again.distances)})")

    # Multi-bit codes: bits=4 spends 4 bits per dimension (extended RaBitQ)
    # instead of 1, trading 4x the code bytes for much tighter estimates —
    # fewer exact re-rank evaluations per query at the same probe budget.
    # Archives record the width; bits=1 stays the paper's
    # binary construction, bit-identical to what previous builds produced.
    print("\n--- Multi-bit codes (bits=4 per dimension) ---")
    narrow = IVFQuantizedSearcher(
        "rabitq", n_clusters=64, bits=1,
        rabitq_config=RaBitQConfig(seed=0), rng=0,
    ).fit(data)
    wide = IVFQuantizedSearcher(
        "rabitq", n_clusters=64, bits=4,
        rabitq_config=RaBitQConfig(seed=0), rng=0,
    ).fit(data)
    narrow_result = narrow.search(query, 5, nprobe=16)
    wide_result = wide.search(query, 5, nprobe=16)
    print(f"Code bytes per vector    : "
          f"{narrow.arena.codes.itemsize * narrow.arena.n_words} (bits=1) vs "
          f"{wide.arena.codes.itemsize * wide.arena.n_words} (bits=4)")
    print(f"Exact re-ranks this query: {narrow_result.n_exact} (bits=1) vs "
          f"{wide_result.n_exact} (bits=4)")
    print(f"bits=4 top-5 ids         : {wide_result.ids.tolist()} "
          f"(same as bits=1: "
          f"{np.array_equal(narrow_result.ids, wide_result.ids)})")


if __name__ == "__main__":
    main()
