"""The MSong failure case: where PQ/OPQ break and RaBitQ does not.

Section 5.2.3 of the paper shows that on the MSong dataset the PQ-family
methods produce estimated distances with enormous relative error, which makes
their ANN recall collapse even with re-ranking, while RaBitQ — whose error
bound is distribution-free — is unaffected.

This example reproduces the mechanism on the MSong-analogue synthetic
dataset (heavy-tailed, variance-skewed audio-feature-like data): it prints
the estimation error of RaBitQ, PQ and OPQ side by side and then shows the
effect on end-to-end ANN recall.

Run with:  python examples/msong_failure_case.py
"""

from __future__ import annotations

import numpy as np

from repro import RaBitQ, RaBitQConfig
from repro.baselines import OptimizedProductQuantizer, ProductQuantizer
from repro.datasets import load_dataset
from repro.experiments.ann_search import ivf_baseline_search
from repro.index import FlatIndex, IVFIndex, IVFQuantizedSearcher
from repro.metrics import (
    average_relative_error,
    max_relative_error,
    recall_at_k,
)
from repro.substrates.linalg import pairwise_squared_distances
from _example_scale import scaled as _scaled


def estimation_errors(dataset, n_queries=10):
    """Average / max relative error of each estimator on the dataset."""
    queries = dataset.queries[:n_queries]
    true = pairwise_squared_distances(queries, dataset.data)

    rabitq = RaBitQ(RaBitQConfig(seed=0)).fit(dataset.data)
    rabitq_est = np.vstack(
        [rabitq.estimate_distances(q).distances for q in queries]
    )

    n_segments = dataset.dim // 4  # 4-bit sub-codebooks, D bits per code
    pq = ProductQuantizer(n_segments, 4, rng=0).fit(dataset.data)
    pq_est = np.vstack([pq.estimate_distances(q) for q in queries])

    opq = OptimizedProductQuantizer(n_segments, 4, n_iterations=2, rng=0).fit(
        dataset.data
    )
    opq_est = np.vstack([opq.estimate_distances(q) for q in queries])

    rows = []
    for name, est in (("RaBitQ", rabitq_est), ("PQx4", pq_est), ("OPQx4", opq_est)):
        rows.append(
            (
                name,
                average_relative_error(est.ravel(), true.ravel()),
                max_relative_error(est.ravel(), true.ravel()),
            )
        )
    return rows


def main() -> None:
    k = 10
    print("Loading the MSong-analogue dataset (heavy-tailed, variance-skewed, D=420) ...")
    dataset = load_dataset(
        "msong", n_data=_scaled(4000), n_queries=30, ground_truth_k=k, rng=0
    )

    print("\nDistance-estimation error (all methods use ~D-bit codes):")
    print(f"{'method':<10} {'avg rel err':>12} {'max rel err':>12}")
    for name, avg_err, max_err in estimation_errors(dataset):
        print(f"{name:<10} {avg_err * 100:>11.2f}% {max_err * 100:>11.2f}%")

    print("\nEnd-to-end ANN recall with IVF (nprobe=16):")
    rabitq_searcher = IVFQuantizedSearcher(
        "rabitq", n_clusters=48, rabitq_config=RaBitQConfig(seed=0), rng=0
    ).fit(dataset.data)
    results = rabitq_searcher.search_batch(dataset.queries, k, nprobe=16)
    rabitq_recall = recall_at_k([r.ids for r in results], dataset.ground_truth, k)

    ivf = IVFIndex(48, rng=0).fit(dataset.data)
    opq = OptimizedProductQuantizer(
        dataset.dim // 4, 4, n_iterations=2, rng=0
    ).fit(dataset.data)
    results = ivf_baseline_search(
        ivf, FlatIndex(dataset.data), opq, dataset.queries, k,
        nprobe=16, rerank_count=100,
    )
    opq_recall = recall_at_k([ids for ids, _, _ in results], dataset.ground_truth, k)

    print(f"IVF-RaBitQ              : recall@{k} = {rabitq_recall:.3f}")
    print(f"IVF-OPQ (rerank=100)    : recall@{k} = {opq_recall:.3f}")
    print("\nRaBitQ's guarantee is distribution-free, so the skewed, heavy-tailed "
          "structure of this dataset does not hurt it; the per-subspace KMeans "
          "codebooks of PQ/OPQ lose most of their resolution here.")


if __name__ == "__main__":
    main()
