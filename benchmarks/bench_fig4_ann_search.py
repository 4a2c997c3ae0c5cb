"""Fig. 4 — time/accuracy trade-off for ANN search (IVF-RaBitQ vs IVF-OPQ vs HNSW).

Each dataset panel prints one row per (method, parameter) point: recall@K,
average distance ratio, QPS and the number of exact re-ranking computations.
Qualitative findings to look for:

* IVF-RaBitQ reaches high recall without any re-ranking parameter,
* IVF-OPQ needs a per-dataset re-ranking budget (too small a budget caps its
  recall),
* on the MSong-like panel IVF-OPQ's recall stays low even with re-ranking
  while IVF-RaBitQ is unaffected.

The batch variant (``test_fig4_batch_throughput``) compares the vectorized
multi-query engine (:meth:`IVFQuantizedSearcher.search_batch`) against the
sequential per-query loop on 1000 queries: identical results, >= 1.5x
throughput, each side timed as its best of three alternating runs.  (The ratio used to be >= 3x; the code-arena refactor made the
*sequential* loop itself several times faster — fused kernels, scratch
reuse, no per-cluster object soup — so the remaining headroom batching can
win is smaller even though both absolute throughputs went up.  The
absolute trajectory is tracked in ``benchmarks/results/BENCH_ann.json``.)
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import bench_dataset, emit
from repro.core.config import RaBitQConfig
from repro.datasets.registry import load_dataset
from repro.experiments.ann_search import run_ann_search_experiment
from repro.experiments.report import format_table, rows_from_dataclasses
from repro.index.searcher import IVFQuantizedSearcher

#: Dataset panels; a subset of the paper's six to keep the suite fast, with
#: the interesting failure case (msong) always included.
FIG4_DATASETS = ("sift", "msong", "gist")


@pytest.mark.parametrize("dataset_name", FIG4_DATASETS)
def test_fig4_ann_search(benchmark, dataset_name):
    """One Fig. 4 panel: QPS/recall curves of the three ANN pipelines."""
    dataset = bench_dataset(dataset_name, ground_truth_k=10)
    results = benchmark.pedantic(
        run_ann_search_experiment,
        kwargs={
            "dataset": dataset,
            "k": 10,
            "nprobe_values": (2, 4, 8, 16),
            "ef_search_values": (20, 80),
            "opq_rerank_counts": (50, 200),
            "n_clusters": 32,
            "include_hnsw": dataset_name == "sift",
            "include_opq": True,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            rows_from_dataclasses(results),
            title=f"Figure 4 -- ANN search trade-off on {dataset_name!r} (K=10)",
        )
    )
    rabitq_best = max(
        r.recall for r in results if r.method == "IVF-RaBitQ"
    )
    assert rabitq_best >= 0.9
    opq_best = max(
        (r.recall for r in results if r.method.startswith("IVF-OPQ")), default=None
    )
    if opq_best is not None:
        # RaBitQ's best recall matches or exceeds OPQ's best on every panel.
        assert rabitq_best >= opq_best - 0.02


def test_fig4_batch_throughput():
    """Batch engine vs sequential per-query loop: identical results, >= 1.5x QPS.

    1000 queries against the SIFT-analogue synthetic dataset.  The batch
    engine probes IVF once for the whole matrix, groups queries by probed
    cluster so each cluster's packed code matrix is scanned once per query
    group, and re-ranks per query — results are element-wise identical to the
    sequential loop, only the wall-clock changes.  Search is pure, so one
    searcher serves both paths; each side's time is its best of three
    alternating runs (the first round also warms BLAS and lazy allocations),
    which keeps a single noisy run from deciding the ratio.
    """
    import numpy as np

    k, nprobe, n_queries = 10, 8, 1000
    dataset = load_dataset("sift", n_data=6000, n_queries=n_queries, rng=0)
    searcher = IVFQuantizedSearcher(
        "rabitq", n_clusters=48, rabitq_config=RaBitQConfig(seed=0), rng=0
    ).fit(dataset.data)

    t_sequential = t_batch = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sequential = [
            searcher.search(query, k, nprobe=nprobe) for query in dataset.queries
        ]
        t_sequential = min(t_sequential, time.perf_counter() - start)
        start = time.perf_counter()
        batch = searcher.search_batch(dataset.queries, k, nprobe=nprobe)
        t_batch = min(t_batch, time.perf_counter() - start)

    for got, want in zip(batch, sequential):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)

    speedup = t_sequential / t_batch
    emit(
        format_table(
            [
                {
                    "path": "sequential loop",
                    "queries": n_queries,
                    "seconds": round(t_sequential, 3),
                    "QPS": round(n_queries / t_sequential, 1),
                    "speedup": 1.0,
                },
                {
                    "path": "batch engine",
                    "queries": n_queries,
                    "seconds": round(t_batch, 3),
                    "QPS": round(n_queries / t_batch, 1),
                    "speedup": round(speedup, 2),
                },
            ],
            title="Figure 4 (batch variant) -- search_batch vs sequential loop "
            f"(K={k}, nprobe={nprobe})",
        )
    )
    # The batch engine's edge is scanning each probed cluster once per
    # query group and amortising probing and per-call overhead over the
    # batch; both paths share query preparation and the per-cluster
    # estimate step, so the gap is that and nothing else -- about 2x on a
    # laptop-class CPU.  1.5x leaves room for timing noise while still
    # failing if the batch engine stops grouping by cluster.
    assert speedup >= 1.5
