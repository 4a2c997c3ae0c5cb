"""Unbiased estimation of inner products and cosine similarity with RaBitQ.

The paper's conclusion notes that RaBitQ applies directly beyond Euclidean
distance: the cosine similarity of two raw vectors equals the inner product
of their unit vectors, and the raw inner product decomposes around a centroid
``c`` as

    <o_r, q_r> = ||o_r - c|| * ||q_r - c|| * <o, q> + <o_r, c> + <q_r, c> - ||c||^2

so both reduce to the same unit-vector inner product ``<o, q>`` the RaBitQ
estimator already targets.  :class:`SimilarityEstimator` serves both from a
fitted :class:`repro.core.quantizer.RaBitQ` through the searcher's fused
pipeline with ``metric="ip"`` / ``"cosine"`` (see
:func:`repro.core.estimator.fused_estimate`): on one centroid it returns what
a one-cluster :class:`repro.index.searcher.IVFQuantizedSearcher` of that
metric returns, bounds included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantizer import QuantizedQuery, RaBitQ
from repro.exceptions import InvalidParameterError, NotFittedError


@dataclass(frozen=True)
class SimilarityEstimate:
    """Estimated similarities together with confidence bounds.

    Attributes
    ----------
    values:
        Unbiased estimates of the requested similarity (inner product or
        cosine) between the query and every stored vector.
    lower_bounds / upper_bounds:
        Per-vector confidence bounds derived from the estimator's error bound
        (Theorem 3.2) with the quantizer's ``epsilon_0``.
    """

    values: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray

    def __len__(self) -> int:
        return int(self.values.shape[0])


class SimilarityEstimator:
    """Inner-product and cosine-similarity estimation over a RaBitQ index.

    Parameters
    ----------
    quantizer:
        A fitted :class:`RaBitQ` quantizer.  Its stored centroid, norms and
        alignments are reused; no additional index state is required beyond
        the query-independent quantities cached by this class.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RaBitQ, RaBitQConfig
    >>> from repro.core.similarity import SimilarityEstimator
    >>> rng = np.random.default_rng(0)
    >>> data = rng.standard_normal((200, 64))
    >>> quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
    >>> estimator = SimilarityEstimator(quantizer)
    >>> estimate = estimator.estimate_inner_products(rng.standard_normal(64))
    >>> len(estimate)
    200
    """

    def __init__(self, quantizer: RaBitQ) -> None:
        if not quantizer.is_fitted:
            raise NotFittedError(
                "SimilarityEstimator requires an already fitted RaBitQ quantizer"
            )
        self._quantizer = quantizer
        centre = quantizer.dataset.centroid[None, :]
        # ||c||^2 as the searcher's IVF layer computes it (an einsum over
        # centroid rows; a BLAS dot can round differently).
        self._centroid_sq_norm = float(np.einsum("ij,ij->i", centre, centre)[0])
        # The fused constants need <o_r, c> and ||o_r|| per stored vector,
        # which the codes do not determine: fit_raw_terms() supplies them.
        self._consts: np.ndarray | None = None

    @property
    def quantizer(self) -> RaBitQ:
        """The underlying RaBitQ quantizer."""
        return self._quantizer

    def fit_raw_terms(self, data: np.ndarray) -> "SimilarityEstimator":
        """Build the fused constants from the raw vectors.

        Parameters
        ----------
        data:
            The same raw vectors the quantizer was fitted on (in the same
            order).  Two scalars per vector enter the constants: ``<o_r, c>``
            (needed for inner products) and ``||o_r||`` (needed for cosine).
        """
        raw = np.asarray(data, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[0] != len(self._quantizer.dataset):
            raise InvalidParameterError(
                "data must contain exactly the vectors the quantizer was fitted on"
            )
        if raw.shape[1] != self._quantizer.dim:
            raise InvalidParameterError(
                f"data has dimension {raw.shape[1]}, quantizer expects "
                f"{self._quantizer.dim}"
            )
        # ip and cosine share one layout, so one matrix serves both.
        self._consts = self._quantizer._code_consts(
            slice(None),
            self._quantizer.config.epsilon0,
            metric="ip",
            dot_centroid=raw @ self._quantizer.dataset.centroid,
            raw_norms=np.sqrt(np.einsum("ij,ij->i", raw, raw)),
        )
        return self

    def _estimate(self, query, compute: str, metric: str) -> SimilarityEstimate:
        """Scores and bounds under ``metric`` for every stored vector."""
        if self._consts is None:
            raise NotFittedError(
                "call fit_raw_terms(data) before estimating similarities"
            )
        if isinstance(query, QuantizedQuery):
            raise InvalidParameterError(
                "similarity estimation requires the raw query vector, not a "
                "prepared QuantizedQuery (the centroid term depends on it)"
            )
        quantizer = self._quantizer
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        prepared = quantizer.prepare_queries(vec[None, :])
        # The per-query scalars, expression for expression as the searcher
        # computes them for a probed cluster.
        estimate = quantizer._estimate(
            prepared,
            slice(None),
            self._consts,
            compute,
            quantizer.config.epsilon0,
            metric=metric,
            query_offset=float(np.dot(vec, quantizer.dataset.centroid))
            - self._centroid_sq_norm,
            query_raw_norm=float(np.sqrt(np.dot(vec, vec))),
        )
        return SimilarityEstimate(
            values=estimate.distances[0],
            lower_bounds=estimate.lower_bounds[0],
            upper_bounds=estimate.upper_bounds[0],
        )

    def estimate_inner_products(
        self, query: np.ndarray, *, compute: str = "bitwise"
    ) -> SimilarityEstimate:
        """Unbiased estimates of ``<o_r, q_r>`` for every stored vector."""
        return self._estimate(query, compute, "ip")

    def estimate_cosine(
        self, query: np.ndarray, *, compute: str = "bitwise"
    ) -> SimilarityEstimate:
        """Unbiased estimates of the cosine similarity for every stored vector.

        The estimated raw inner product divided by the raw norms, clipped to
        ``[-1, 1]``; vectors with zero norm (or a zero-norm query) get a
        cosine of 0.
        """
        return self._estimate(query, compute, "cosine")

    def top_k_inner_product(
        self, query: np.ndarray, k: int, *, compute: str = "bitwise"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate maximum-inner-product search: top-``k`` ids and estimates."""
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        estimate = self.estimate_inner_products(query, compute=compute)
        k = min(k, len(estimate))
        order = np.argsort(-estimate.values, kind="stable")[:k]
        return order.astype(np.int64), estimate.values[order]


__all__ = ["SimilarityEstimate", "SimilarityEstimator"]
