"""Metric strategy layer: squared-L2, inner-product and cosine serving.

The paper's conclusion observes that the RaBitQ estimator targets one
quantity — the inner product of *unit* vectors — from which squared
Euclidean distance, raw inner product and cosine similarity all derive.
Around a normalization centroid ``c``::

    ||o_r - q_r||^2 = ||o_r - c||^2 + ||q_r - c||^2
                      - 2 ||o_r - c|| ||q_r - c|| <o, q>          (L2)
    <o_r, q_r>      = ||o_r - c|| ||q_r - c|| <o, q>
                      + <o_r, c> + <q_r, c> - ||c||^2             (IP)
    cos(o_r, q_r)   = <o_r, q_r> / (||o_r|| ||q_r||)              (cosine)

This module makes the choice of metric a first-class *strategy* consumed by
every layer of the serving stack: the fused estimation kernels
(:mod:`repro.core.estimator`), the flat quantizer
(``RaBitQ(metric=...)``), IVF probing (:mod:`repro.index.ivf`),
re-ranking (:mod:`repro.index.rerank`), the searcher
(:mod:`repro.index.searcher`) and persistence (the archive records the
metric).

Two conventions keep the layers metric-generic:

* **Direction.**  ``higher_is_better`` distinguishes distances (smaller is
  better) from similarities (larger is better).  Selection everywhere runs
  through :meth:`Metric.sort_key`, which returns a *minimization* key —
  the values themselves for L2 (bit-identical to the metric-oblivious
  code) and their negation for similarities (IEEE negation is exact, and
  stable ties still resolve toward the lower index).
* **Score fields.**  Result containers keep their historical field names
  (``distances``, ``lower_bounds``, ``upper_bounds``); under a similarity
  metric they carry similarity scores and their confidence bounds, with
  results ordered by *descending* score.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import InvalidParameterError


class Metric(abc.ABC):
    """Strategy describing how one similarity/distance metric is served.

    Concrete metrics are stateless singletons (:data:`L2`, :data:`IP`,
    :data:`COSINE`); resolve user input with :func:`resolve_metric`.

    Attributes
    ----------
    name:
        Stable identifier recorded in archives and benchmark records.
    higher_is_better:
        ``False`` for distances, ``True`` for similarities.
    n_consts:
        Rows of the fused per-code constants matrix this metric needs
        (see :func:`repro.core.estimator.build_code_consts`).
    """

    name: str
    higher_is_better: bool
    n_consts: int

    def sort_key(self, values: np.ndarray) -> np.ndarray:
        """Minimization key: best-first selection runs on this array.

        For L2 this is ``values`` itself (the same array object, keeping
        the historical code path bit-identical); for similarities it is
        ``-values``.
        """
        return -np.asarray(values) if self.higher_is_better else values

    @abc.abstractmethod
    def exact_scores(self, data_rows: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Exact metric value between ``query`` and every row of ``data_rows``."""

    @abc.abstractmethod
    def probe_key(
        self,
        centroids: np.ndarray,
        centroid_sq_norms: np.ndarray,
        query: np.ndarray,
    ) -> np.ndarray:
        """Minimization key ranking IVF centroids for probing."""


class _L2Metric(Metric):
    """Squared Euclidean distance (the paper's primary metric)."""

    name = "l2"
    higher_is_better = False
    n_consts = 7  # == repro.core.estimator.N_CONSTS

    def exact_scores(self, data_rows, query):
        # Gather + difference + einsum: exactly the operations the
        # re-ranking hot path has always used (FlatIndex.distances minus
        # the per-call validation), so the L2 path stays bit-identical.
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        diff = data_rows - vec[None, :]
        return np.einsum("ij,ij->i", diff, diff)

    def probe_key(self, centroids, centroid_sq_norms, query):
        # The norm-expansion GEMV kernel of IVFIndex._probe_distances.
        return centroid_sq_norms - 2.0 * (centroids @ query) + query @ query


class _IPMetric(Metric):
    """Raw inner product (maximum-inner-product search)."""

    name = "ip"
    higher_is_better = True
    n_consts = 9  # == repro.core.estimator.N_CONSTS_SIM

    def exact_scores(self, data_rows, query):
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        return data_rows @ vec

    def probe_key(self, centroids, centroid_sq_norms, query):
        return -(centroids @ query)


class _CosineMetric(Metric):
    """Cosine similarity of the raw vectors.

    Zero-norm vectors (data or query) get a cosine of 0, as the estimates
    of :func:`repro.core.estimator.fused_estimate` do.
    """

    name = "cosine"
    higher_is_better = True
    n_consts = 9  # == repro.core.estimator.N_CONSTS_SIM

    def exact_scores(self, data_rows, query):
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        dots = data_rows @ vec
        norms = np.sqrt(np.einsum("ij,ij->i", data_rows, data_rows))
        denom = norms * float(np.sqrt(np.dot(vec, vec)))
        safe = np.where(denom > 0.0, denom, 1.0)
        return np.where(denom > 0.0, dots / safe, 0.0)

    def probe_key(self, centroids, centroid_sq_norms, query):
        # The query norm is a positive constant across centroids, so the
        # ranking only needs <c, q> / ||c||; zero-norm centroids score 0.
        dots = centroids @ query
        norms = np.sqrt(centroid_sq_norms)
        safe = np.where(norms > 0.0, norms, 1.0)
        return -np.where(norms > 0.0, dots / safe, 0.0)


#: The metric singletons.
L2 = _L2Metric()
IP = _IPMetric()
COSINE = _CosineMetric()

METRICS: dict[str, Metric] = {m.name: m for m in (L2, IP, COSINE)}


def resolve_metric(metric: str | Metric) -> Metric:
    """Resolve a metric name (or pass through a :class:`Metric` instance)."""
    if isinstance(metric, Metric):
        return metric
    resolved = METRICS.get(metric)
    if resolved is None:
        raise InvalidParameterError(
            f"unknown metric {metric!r}; expected one of "
            f"{sorted(METRICS)} or a Metric instance"
        )
    return resolved


__all__ = [
    "Metric",
    "L2",
    "IP",
    "COSINE",
    "METRICS",
    "resolve_metric",
]
