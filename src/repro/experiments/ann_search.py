"""Fig. 4 and Fig. 10 — time/accuracy trade-off for ANN search.

The experiment builds IVF-RaBitQ, IVF-OPQ (with several fixed re-ranking
budgets) and HNSW over a dataset, sweeps the knob that trades time for
accuracy (``nprobe`` for the IVF methods, ``ef_search`` for HNSW), and
records recall@K, average distance ratio and QPS for every setting.

Fig. 10's ablation (RaBitQ with vs. without re-ranking) is obtained by
passing ``rerank=False`` for an extra IVF-RaBitQ curve.

The IVF-OPQ curves run through :func:`ivf_baseline_search`, the plain
IVF + baseline-quantizer pipeline the comparison needs; the serving
searcher, :class:`repro.index.searcher.IVFQuantizedSearcher`, is IVF-RaBitQ
only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import HNSWIndex, OptimizedProductQuantizer
from repro.core.config import RaBitQConfig
from repro.core.estimator import DistanceEstimate
from repro.datasets.ground_truth import brute_force_ground_truth
from repro.datasets.synthetic import Dataset
from repro.exceptions import InvalidParameterError
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.rerank import NoReranker, TopCandidateReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.metrics.distance_ratio import average_distance_ratio
from repro.metrics.recall import recall_at_k
from repro.metrics.timing import queries_per_second
from repro.substrates.linalg import as_float_matrix


@dataclass(frozen=True)
class AnnSearchResult:
    """One point of a QPS/recall curve."""

    dataset: str
    method: str
    parameter: float
    recall: float
    distance_ratio: float
    qps: float
    avg_exact_per_query: float


def ivf_baseline_search(
    ivf: IVFIndex,
    flat: FlatIndex,
    quantizer,
    queries: np.ndarray,
    k: int,
    *,
    nprobe: int,
    rerank_count: int,
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """IVF + baseline quantizer + fixed-budget re-ranking (Fig. 4's IVF-OPQ).

    ``ivf``, ``flat`` and ``quantizer`` (PQ, OPQ, SQ, ...) must all be
    fitted on the same data.  Each query's candidates are the probed
    buckets' vectors in probe order; the quantizer estimates their squared
    distances, and the ``rerank_count`` best estimates are re-ranked
    exactly.  A baseline has no error bound, so its bounds are the estimate
    itself.  Returns one ``(ids, distances, n_exact)`` per query.
    """
    reranker = TopCandidateReranker(rerank_count)
    results = []
    for query in as_float_matrix(queries, "queries"):
        cand = ivf.candidates(query, nprobe)
        est = quantizer.estimate_distances(query, codes=quantizer.codes[cand])
        estimate = DistanceEstimate(
            distances=est,
            lower_bounds=est,
            upper_bounds=est,
            inner_products=np.zeros_like(est),
        )
        results.append(reranker.rerank(query, cand, estimate, flat, k))
    return results


def _evaluate_curve(
    dataset: Dataset,
    ground_truth: np.ndarray,
    method: str,
    search_fn,
    parameters,
    k: int,
) -> list[AnnSearchResult]:
    """Run ``search_fn(parameter)`` for every parameter and collect metrics."""
    results = []
    for parameter in parameters:
        start = time.perf_counter()
        retrieved, exact_counts = search_fn(parameter)
        elapsed = time.perf_counter() - start
        recall = recall_at_k(retrieved, ground_truth, k)
        ratio = average_distance_ratio(
            dataset.data, dataset.queries, retrieved, ground_truth
        )
        results.append(
            AnnSearchResult(
                dataset=dataset.name,
                method=method,
                parameter=float(parameter),
                recall=recall,
                distance_ratio=ratio,
                qps=queries_per_second(len(retrieved), elapsed),
                avg_exact_per_query=float(np.mean(exact_counts)),
            )
        )
    return results


def run_ann_search_experiment(
    dataset: Dataset,
    *,
    k: int = 10,
    nprobe_values: tuple[int, ...] = (1, 2, 4, 8, 16),
    ef_search_values: tuple[int, ...] = (20, 50, 100, 200),
    opq_rerank_counts: tuple[int, ...] = (100, 250),
    n_clusters: int | None = None,
    include_hnsw: bool = True,
    include_opq: bool = True,
    include_rabitq_no_rerank: bool = False,
    seed: int = 0,
) -> list[AnnSearchResult]:
    """Reproduce one dataset panel of Fig. 4 (and Fig. 10 when requested).

    Parameters
    ----------
    dataset:
        Dataset to evaluate (queries and data are used as-is).
    k:
        Number of neighbours to retrieve (the paper uses 100 at million
        scale; 10 suits laptop-scale data sizes).
    nprobe_values:
        IVF probing budgets swept for the quantization-based methods.
    ef_search_values:
        HNSW beam widths swept.
    opq_rerank_counts:
        Fixed re-ranking candidate counts for IVF-OPQ (the paper sweeps
        500/1000/2500 at million scale).
    n_clusters:
        IVF cluster count override.
    include_hnsw / include_opq / include_rabitq_no_rerank:
        Toggles for the individual curves.
    seed:
        Seed for all components.
    """
    if k <= 0:
        raise InvalidParameterError("k must be positive")
    ground_truth = (
        dataset.ground_truth[:, :k]
        if dataset.ground_truth is not None and dataset.ground_truth.shape[1] >= k
        else brute_force_ground_truth(dataset.data, dataset.queries, k)
    )
    results: list[AnnSearchResult] = []

    # ------------------------------------------------------------------ #
    # IVF-RaBitQ (error-bound re-ranking, no tuning)
    # ------------------------------------------------------------------ #
    rabitq_searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=n_clusters,
        rabitq_config=RaBitQConfig(seed=seed),
        rng=seed,
    ).fit(dataset.data)

    def rabitq_search(nprobe):
        outputs = rabitq_searcher.search_batch(dataset.queries, k, nprobe=int(nprobe))
        return [r.ids for r in outputs], [r.n_exact for r in outputs]

    results.extend(
        _evaluate_curve(
            dataset, ground_truth, "IVF-RaBitQ", rabitq_search, nprobe_values, k
        )
    )

    # ------------------------------------------------------------------ #
    # IVF-RaBitQ without re-ranking (Fig. 10 ablation)
    # ------------------------------------------------------------------ #
    if include_rabitq_no_rerank:
        no_rerank_searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=n_clusters,
            rabitq_config=RaBitQConfig(seed=seed),
            reranker=NoReranker(),
            rng=seed,
        ).fit(dataset.data)

        def no_rerank_search(nprobe):
            outputs = no_rerank_searcher.search_batch(
                dataset.queries, k, nprobe=int(nprobe)
            )
            return [r.ids for r in outputs], [r.n_exact for r in outputs]

        results.extend(
            _evaluate_curve(
                dataset,
                ground_truth,
                "IVF-RaBitQ (no rerank)",
                no_rerank_search,
                nprobe_values,
                k,
            )
        )

    # ------------------------------------------------------------------ #
    # IVF-OPQ with fixed re-ranking budgets
    # ------------------------------------------------------------------ #
    if include_opq:
        dim = dataset.dim
        n_segments = dim // 2
        while dim % n_segments != 0 and n_segments > 1:
            n_segments -= 1
        ivf = IVFIndex(n_clusters, rng=seed).fit(dataset.data)
        flat = FlatIndex(dataset.data)
        opq = OptimizedProductQuantizer(
            n_segments, 4, n_iterations=2, rng=seed
        ).fit(dataset.data)
        for rerank_count in opq_rerank_counts:

            def opq_search(nprobe, _rerank_count=int(rerank_count)):
                outputs = ivf_baseline_search(
                    ivf,
                    flat,
                    opq,
                    dataset.queries,
                    k,
                    nprobe=int(nprobe),
                    rerank_count=_rerank_count,
                )
                return [ids for ids, _, _ in outputs], [n for _, _, n in outputs]

            results.extend(
                _evaluate_curve(
                    dataset,
                    ground_truth,
                    f"IVF-OPQ (rerank={rerank_count})",
                    opq_search,
                    nprobe_values,
                    k,
                )
            )

    # ------------------------------------------------------------------ #
    # HNSW reference curve
    # ------------------------------------------------------------------ #
    if include_hnsw:
        hnsw = HNSWIndex(m=16, ef_construction=100, rng=seed).fit(dataset.data)

        def hnsw_search(ef_search):
            retrieved = []
            for query in dataset.queries:
                ids, _ = hnsw.search(query, k, ef_search=int(ef_search))
                retrieved.append(ids)
            return retrieved, [0] * len(retrieved)

        results.extend(
            _evaluate_curve(
                dataset, ground_truth, "HNSW", hnsw_search, ef_search_values, k
            )
        )

    return results


__all__ = ["AnnSearchResult", "ivf_baseline_search", "run_ann_search_experiment"]
