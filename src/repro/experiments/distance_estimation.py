"""Fig. 3 — time/accuracy trade-off of distance estimation.

For each dataset and each method (RaBitQ, PQ, OPQ, LSQ, with
varying code lengths) the experiment measures:

* the average relative error of the estimated squared distances,
* the maximum relative error,
* the average estimation time per vector (nanoseconds).

The paper varies the code length by padding (RaBitQ) or by the number of
sub-segments ``M`` (PQ/OPQ/LSQ); this experiment exposes the same knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    AdditiveQuantizer,
    OptimizedProductQuantizer,
    ProductQuantizer,
)
from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.datasets.synthetic import Dataset
from repro.exceptions import InvalidParameterError
from repro.metrics.relative_error import average_relative_error, max_relative_error
from repro.metrics.timing import nanoseconds_per_item
from repro.substrates.linalg import pairwise_squared_distances


@dataclass(frozen=True)
class DistanceEstimationResult:
    """One point of the Fig. 3 trade-off curves."""

    dataset: str
    method: str
    code_bits: int
    avg_relative_error: float
    max_relative_error: float
    time_per_vector_ns: float


def _evaluate_estimates(
    dataset: Dataset,
    estimate_fn,
    n_queries: int,
) -> tuple[float, float, float]:
    """Run ``estimate_fn(query)`` for the first ``n_queries`` queries.

    Returns ``(avg_rel_error, max_rel_error, time_per_vector_ns)``.
    """
    queries = dataset.queries[:n_queries]
    true = pairwise_squared_distances(queries, dataset.data)
    estimates = np.empty_like(true)
    start = time.perf_counter()
    for i, query in enumerate(queries):
        estimates[i] = estimate_fn(query)
    elapsed = time.perf_counter() - start
    avg_err = average_relative_error(estimates.ravel(), true.ravel())
    max_err = max_relative_error(estimates.ravel(), true.ravel())
    per_vector = nanoseconds_per_item(elapsed, true.size)
    return avg_err, max_err, per_vector


def run_distance_estimation_experiment(
    dataset: Dataset,
    *,
    methods: tuple[str, ...] = ("rabitq", "pq", "opq"),
    n_queries: int = 10,
    code_length_factors: tuple[float, ...] = (0.5, 1.0, 2.0),
    seed: int = 0,
) -> list[DistanceEstimationResult]:
    """Reproduce one dataset panel of Fig. 3.

    Parameters
    ----------
    dataset:
        The dataset to evaluate on.
    methods:
        Any of ``"rabitq"``, ``"pq"``, ``"pq-x8"``, ``"opq"``, ``"lsq"``.
    n_queries:
        Number of query vectors to evaluate (each against all data vectors).
    code_length_factors:
        Code lengths relative to ``D`` bits.  For RaBitQ, factor ``f`` pads
        the vectors to ``f * D`` bits (only factors >= 1 are applicable);
        for PQ/OPQ/LSQ, factor ``f`` uses ``M = f * D / 4`` 4-bit segments
        so that the code is ``f * D`` bits long.
    seed:
        Seed forwarded to every method.

    Returns
    -------
    list[DistanceEstimationResult]
        One row per (method, code length) combination.
    """
    if n_queries <= 0:
        raise InvalidParameterError("n_queries must be positive")
    dim = dataset.dim
    results: list[DistanceEstimationResult] = []

    for method in methods:
        for factor in code_length_factors:
            target_bits = int(round(factor * dim))
            if method == "rabitq":
                if target_bits < dim:
                    continue  # RaBitQ supports padding only, not truncation.
                config = RaBitQConfig(code_length=target_bits, seed=seed)
                quantizer = RaBitQ(config).fit(dataset.data)

                def estimate(query, _q=quantizer):
                    return _q.estimate_distances(query).distances

                code_bits = quantizer.code_length
            elif method in ("pq", "opq", "pq-x8", "lsq"):
                bits_per_segment = 8 if method == "pq-x8" else 4
                n_segments = max(1, target_bits // bits_per_segment)
                # The data dimension must be divisible by the segment count.
                while dim % n_segments != 0 and n_segments > 1:
                    n_segments -= 1
                if method == "opq":
                    quantizer = OptimizedProductQuantizer(
                        n_segments, bits_per_segment, n_iterations=3, rng=seed
                    ).fit(dataset.data)
                elif method == "lsq":
                    quantizer = AdditiveQuantizer(
                        max(2, n_segments // 8), 8, rng=seed
                    ).fit(dataset.data)
                else:
                    quantizer = ProductQuantizer(
                        n_segments, bits_per_segment, rng=seed
                    ).fit(dataset.data)

                def estimate(query, _q=quantizer):
                    return _q.estimate_distances(query)

                code_bits = quantizer.code_size_bits()
            else:
                raise InvalidParameterError(f"unknown method {method!r}")

            avg_err, max_err, per_vector = _evaluate_estimates(
                dataset, estimate, n_queries
            )
            results.append(
                DistanceEstimationResult(
                    dataset=dataset.name,
                    method=method,
                    code_bits=code_bits,
                    avg_relative_error=avg_err,
                    max_relative_error=max_err,
                    time_per_vector_ns=per_vector,
                )
            )
    return results


__all__ = ["DistanceEstimationResult", "run_distance_estimation_experiment"]
