"""Maximum inner-product and cosine-similarity search with RaBitQ.

The paper's conclusion notes that RaBitQ's unbiased estimator extends
directly from squared Euclidean distances to inner products and cosine
similarity: both reduce to the same unit-vector inner product after the
centroid decomposition.  This example serves both metrics twice:

1. **flat** — ``RaBitQ(config, metric="ip" | "cosine")`` estimates every
   raw inner product / cosine with confidence bounds; we check the
   estimates and the interval coverage against brute force and run an
   approximate maximum-inner-product search (MIPS) by sorting the scores;
2. **IVF** — an :class:`IVFQuantizedSearcher` constructed with the same
   ``metric=`` runs metric-aware probing, fused similarity estimation and
   descending-score error-bound re-ranking, plus the index lifecycle
   (insert / delete) and persistence (the archive records the metric).

Run with:  python examples/mips_search.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import RaBitQ, RaBitQConfig, load_searcher, save_searcher
from repro.datasets.ground_truth import brute_force_ground_truth
from repro.index.searcher import IVFQuantizedSearcher
from _example_scale import scaled as _scaled


def flat_section(data: np.ndarray, query: np.ndarray, k: int) -> None:
    print("\n=== flat: RaBitQ(metric=...) over every stored vector ===")
    true_ip = data @ query
    true_cos = true_ip / (np.linalg.norm(data, axis=1) * np.linalg.norm(query))
    for metric, truth in (("ip", true_ip), ("cosine", true_cos)):
        quantizer = RaBitQ(RaBitQConfig(seed=0), metric=metric).fit(data)
        estimate = quantizer.estimate_distances(query)
        scores = estimate.scores  # larger is better
        error = np.mean(np.abs(scores - truth)) / np.mean(np.abs(truth))
        coverage = (
            (truth >= estimate.lower_bounds) & (truth <= estimate.upper_bounds)
        ).mean()
        top = np.argsort(-scores, kind="stable")[:k]
        overlap = len(set(top.tolist()) & set(np.argsort(-truth)[:k].tolist()))
        print(f"  metric={metric!r}:")
        print(f"    mean |error| / mean |true|  : {error * 100:.2f}%")
        print(f"    confidence-interval coverage: {coverage * 100:.1f}%")
        print(f"    top-{k} by sorted scores    : {overlap}/{k} of the true "
              f"top-{k} (no re-ranking)")


def ivf_section(data, queries, mixing, rng, k: int) -> None:
    for metric in ("ip", "cosine"):
        label = "inner product (MIPS)" if metric == "ip" else "cosine"
        print(f"\n=== IVF: metric='{metric}' — {label} ===")
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=32,
            rabitq_config=RaBitQConfig(seed=0),
            rng=0,
            metric=metric,
        ).fit(data)

        # Ground truth under the *same* metric (descending-score convention).
        ground_truth = brute_force_ground_truth(data, queries, k, metric=metric)
        hits = 0
        for i, query in enumerate(queries):
            result = searcher.search(query, k, nprobe=8)
            hits += len(set(result.ids.tolist()) & set(ground_truth[i].tolist()))
        print(f"  recall@{k} (nprobe=8):  {hits / (len(queries) * k):.3f}")

        batch = searcher.search_batch(queries, k, nprobe=8)
        top = batch[0]
        print(
            f"  best match of query 0: id {top.ids[0]}, score "
            f"{top.distances[0]:.4f} (scores are descending: "
            f"{np.all(np.diff(top.distances) <= 0)})"
        )
        print(
            f"  work per query: ~{batch.total_candidates // len(batch)} "
            f"estimated, ~{batch.total_exact // len(batch)} exact"
        )

        # The mutable lifecycle and persistence work unchanged: the archive
        # records the metric, so a reloaded searcher keeps serving the same
        # workload.
        fresh_ids = searcher.insert(
            rng.standard_normal((5, mixing.shape[0])) @ mixing + 0.2
        )
        searcher.delete(fresh_ids[:2])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{metric}_index.rbq"
            save_searcher(searcher, path)
            reloaded = load_searcher(path)
        print(
            f"  save/load round-trip: metric={reloaded.metric!r}, "
            f"{reloaded.n_live} live vectors"
        )


def main() -> None:
    rng = np.random.default_rng(0)
    n_vectors, dim, k = _scaled(8000), 128, 10

    print(f"Generating {n_vectors} embedding-like vectors of dimension {dim} ...")
    # Latent factors plus a shared offset: inner products carry real signal
    # (the recommendation/retrieval setting where MIPS matters).
    latent = rng.standard_normal((n_vectors, 24))
    mixing = rng.standard_normal((24, dim)) / np.sqrt(24)
    data = latent @ mixing + 0.1 * rng.standard_normal((n_vectors, dim)) + 0.2
    queries = (
        rng.standard_normal((20, 24)) @ mixing
        + 0.1 * rng.standard_normal((20, dim))
        + 0.2
    )

    flat_section(data, queries[0], k)
    ivf_section(data, queries, mixing, rng, k)

    print(
        "\nTip: MIPS probing concentrates on large-norm regions, so IVF "
        "needs a larger nprobe than L2/cosine for the same recall — sweep "
        "nprobe against your recall target."
    )


if __name__ == "__main__":
    main()
