"""Fig. 7 and Appendix F.2 — unbiasedness of the estimator.

The experiment collects many (true squared distance, estimated squared
distance) pairs, fits a regression line, and compares:

* RaBitQ's estimator ``<ō,q>/<ō,o>`` — slope ≈ 1, intercept ≈ 0 (unbiased);
* the naive estimator ``<ō,q>`` (treating the quantized vector as the data
  vector, as PQ does) — biased, slope ≈ ``E[<ō,o>] ≈ 0.8`` in the
  inner-product domain;
* an OPQ baseline — also biased.

It also reports the average / maximum relative errors of the two RaBitQ
estimators (Table 7 of the appendix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import OptimizedProductQuantizer
from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    CONST_ALIGN,
    CONST_NORM,
    inner_product_to_squared_distance,
)
from repro.core.quantizer import RaBitQ
from repro.datasets.synthetic import Dataset
from repro.exceptions import InvalidParameterError
from repro.metrics.regression import RegressionFit, fit_estimated_vs_true
from repro.metrics.relative_error import average_relative_error, max_relative_error
from repro.substrates.linalg import pairwise_squared_distances


@dataclass(frozen=True)
class EstimatorReport:
    """Regression fit and error statistics for one estimator."""

    method: str
    slope: float
    intercept: float
    r_squared: float
    avg_relative_error: float
    max_relative_error: float


@dataclass(frozen=True)
class UnbiasednessResult:
    """Results of the Fig. 7 / Table 7 experiment on one dataset."""

    dataset: str
    n_pairs: int
    reports: tuple[EstimatorReport, ...]

    def by_method(self, method: str) -> EstimatorReport:
        """Look up the report of one method."""
        for report in self.reports:
            if report.method == method:
                return report
        raise InvalidParameterError(f"no report for method {method!r}")


def _report(
    method: str, estimated: np.ndarray, true: np.ndarray
) -> EstimatorReport:
    fit: RegressionFit = fit_estimated_vs_true(estimated, true)
    return EstimatorReport(
        method=method,
        slope=fit.slope,
        intercept=fit.intercept,
        r_squared=fit.r_squared,
        avg_relative_error=average_relative_error(estimated, true),
        max_relative_error=max_relative_error(estimated, true),
    )


def run_unbiasedness_experiment(
    dataset: Dataset,
    *,
    n_queries: int = 10,
    include_opq: bool = True,
    normalize: bool = True,
    seed: int = 0,
) -> UnbiasednessResult:
    """Collect estimated-vs-true distance pairs and fit regression lines.

    Parameters
    ----------
    dataset:
        Dataset to run on (the paper uses GIST).
    n_queries:
        Number of queries; every query is paired with every data vector.
    include_opq:
        Also evaluate an OPQ baseline (slower; disable for quick runs).
    normalize:
        Normalize distances by the maximum true distance as the paper does
        before fitting (purely cosmetic for the slope/intercept).
    seed:
        Seed for the quantizers.
    """
    if n_queries <= 0:
        raise InvalidParameterError("n_queries must be positive")
    queries = dataset.queries[:n_queries]
    true = pairwise_squared_distances(queries, dataset.data)

    quantizer = RaBitQ(RaBitQConfig(seed=seed)).fit(dataset.data)
    unbiased = np.empty_like(true)
    naive = np.empty_like(true)
    consts = quantizer.arena.cluster_consts(0)
    for i, query in enumerate(queries):
        prepared = quantizer.prepare_query(query)
        estimate = quantizer.estimate_distances(prepared)
        unbiased[i] = estimate.distances
        # Naive estimator: use <o_bar, q> directly as the inner product.
        naive_ip = estimate.inner_products * consts[CONST_ALIGN]
        naive[i] = inner_product_to_squared_distance(
            naive_ip, consts[CONST_NORM], prepared.terms["query_norms"][0]
        )

    scale = float(true.max()) if normalize else 1.0
    if scale <= 0.0:
        scale = 1.0
    reports = [
        _report("rabitq", unbiased.ravel() / scale, true.ravel() / scale),
        _report("rabitq-naive", naive.ravel() / scale, true.ravel() / scale),
    ]

    if include_opq:
        n_segments = dataset.dim // 2
        while dataset.dim % n_segments != 0 and n_segments > 1:
            n_segments -= 1
        opq = OptimizedProductQuantizer(
            n_segments, 4, n_iterations=2, rng=seed
        ).fit(dataset.data)
        opq_estimates = np.empty_like(true)
        for i, query in enumerate(queries):
            opq_estimates[i] = opq.estimate_distances(query)
        reports.append(
            _report("opq", opq_estimates.ravel() / scale, true.ravel() / scale)
        )

    return UnbiasednessResult(
        dataset=dataset.name,
        n_pairs=int(true.size),
        reports=tuple(reports),
    )


__all__ = ["EstimatorReport", "UnbiasednessResult", "run_unbiasedness_experiment"]
