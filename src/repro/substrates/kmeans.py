"""A self-contained KMeans implementation.

KMeans is a substrate used in three places in the reproduction:

* the coarse quantizer of the IVF index (Section 4 of the paper),
* the sub-codebook training of Product Quantization and OPQ,
* the learned-codebook ablation of Appendix F.1.

The implementation uses k-means++ seeding, Lloyd iterations with empty-cluster
re-seeding, and runs entirely on NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError, NotFittedError
from repro.substrates.linalg import as_float_matrix, pairwise_squared_distances
from repro.substrates.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class KMeansResult:
    """The output of a KMeans run.

    Attributes
    ----------
    centroids:
        Array of shape ``(n_clusters, dim)``.
    assignments:
        Cluster id per training point, shape ``(n_points,)``.
    inertia:
        Sum of squared distances from points to their assigned centroids.
    n_iter:
        Number of Lloyd iterations performed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int


def _kmeans_plus_plus(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Choose initial centroids with the k-means++ strategy."""
    n_points = data.shape[0]
    centroids = np.empty((n_clusters, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n_points))
    centroids[0] = data[first]
    closest = pairwise_squared_distances(data, centroids[:1]).ravel()
    for i in range(1, n_clusters):
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; pick randomly.
            idx = int(rng.integers(n_points))
        else:
            probs = closest / total
            idx = int(rng.choice(n_points, p=probs))
        centroids[i] = data[idx]
        new_dist = pairwise_squared_distances(data, centroids[i : i + 1]).ravel()
        np.minimum(closest, new_dist, out=closest)
    return centroids


#: Above this many ``(point, centroid)`` pairs the E-step streams the
#: distance matrix in row chunks instead of materializing it whole (a
#: 131072x4096 float64 block plus the expansion's temporaries peaks over
#: 12 GiB).  The threshold sits above every pinned workload (the 100k
#: benchmark baseline is ~1.3e8 pairs), so chunking never perturbs an
#: archived result stream: per-row GEMM rounding may differ between
#: operand shapes, and results below the threshold must stay bit-stable.
_ASSIGN_FULL_ENTRIES = 2**28

#: Pair budget per chunk once chunking triggers (~0.5 GiB of float64).
_ASSIGN_CHUNK_ENTRIES = 2**26


def _assign(data: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest centroid.

    Returns ``(assignments, squared_distance_to_assigned_centroid)``.
    """
    n_points = data.shape[0]
    n_clusters = centroids.shape[0]
    if n_points * n_clusters <= _ASSIGN_FULL_ENTRIES:
        dists = pairwise_squared_distances(data, centroids)
        assignments = np.argmin(dists, axis=1)
        best = dists[np.arange(n_points), assignments]
        return assignments, best
    assignments = np.empty(n_points, dtype=np.int64)
    best = np.empty(n_points, dtype=np.float64)
    chunk = max(1, _ASSIGN_CHUNK_ENTRIES // n_clusters)
    for lo in range(0, n_points, chunk):
        hi = min(lo + chunk, n_points)
        dists = pairwise_squared_distances(data[lo:hi], centroids)
        assignments[lo:hi] = np.argmin(dists, axis=1)
        best[lo:hi] = dists[np.arange(hi - lo), assignments[lo:hi]]
    return assignments, best


def kmeans_fit(
    data: np.ndarray,
    n_clusters: int,
    *,
    max_iter: int = 25,
    tol: float = 1e-6,
    rng: RngLike = None,
) -> KMeansResult:
    """Run KMeans on ``data`` and return the fitted centroids.

    Parameters
    ----------
    data:
        Training points, shape ``(n_points, dim)``.
    n_clusters:
        Number of centroids; must be between 1 and ``n_points``.
    max_iter:
        Maximum number of Lloyd iterations.
    tol:
        Relative inertia improvement below which iteration stops.
    rng:
        Seed or generator controlling initialization and re-seeding.
    """
    points = as_float_matrix(data, "data")
    if points.shape[0] == 0:
        raise EmptyDatasetError("cannot run KMeans on an empty dataset")
    if n_clusters <= 0:
        raise InvalidParameterError("n_clusters must be positive")
    if n_clusters > points.shape[0]:
        raise InvalidParameterError(
            f"n_clusters={n_clusters} exceeds number of points {points.shape[0]}"
        )
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be at least 1")

    generator = ensure_rng(rng)
    centroids = _kmeans_plus_plus(points, n_clusters, generator)
    assignments, best = _assign(points, centroids)
    inertia = float(best.sum())
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        # Update step: recompute centroids as cluster means.
        for cluster_id in range(n_clusters):
            members = points[assignments == cluster_id]
            if members.shape[0] == 0:
                # Re-seed empty clusters at the point farthest from its centroid.
                farthest = int(np.argmax(best))
                centroids[cluster_id] = points[farthest]
                best[farthest] = 0.0
            else:
                centroids[cluster_id] = members.mean(axis=0)

        assignments, best = _assign(points, centroids)
        new_inertia = float(best.sum())
        if inertia > 0.0 and (inertia - new_inertia) <= tol * inertia:
            inertia = new_inertia
            break
        inertia = new_inertia

    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iter=n_iter,
    )


class KMeans:
    """Object-oriented wrapper around :func:`kmeans_fit`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.substrates import KMeans
    >>> rng = np.random.default_rng(0)
    >>> data = rng.standard_normal((200, 8))
    >>> model = KMeans(n_clusters=4, rng=0).fit(data)
    >>> model.centroids.shape
    (4, 8)
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        max_iter: int = 25,
        tol: float = 1e-6,
        rng: RngLike = None,
    ) -> None:
        if n_clusters <= 0:
            raise InvalidParameterError("n_clusters must be positive")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self._rng = ensure_rng(rng)
        self._result: KMeansResult | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._result is not None

    @property
    def centroids(self) -> np.ndarray:
        """Fitted centroids of shape ``(n_clusters, dim)``."""
        return self._require_result().centroids

    @property
    def inertia(self) -> float:
        """Final sum of squared distances to assigned centroids."""
        return self._require_result().inertia

    @property
    def labels(self) -> np.ndarray:
        """Cluster assignment of each training point."""
        return self._require_result().assignments

    def _require_result(self) -> KMeansResult:
        if self._result is None:
            raise NotFittedError("KMeans must be fitted before use")
        return self._result

    def fit(self, data: np.ndarray) -> "KMeans":
        """Fit the model to ``data`` and return ``self``."""
        self._result = kmeans_fit(
            data,
            self.n_clusters,
            max_iter=self.max_iter,
            tol=self.tol,
            rng=self._rng,
        )
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Return squared distances from each row of ``data`` to every centroid."""
        result = self._require_result()
        points = as_float_matrix(data, "data")
        return pairwise_squared_distances(points, result.centroids)


__all__ = ["KMeans", "KMeansResult", "kmeans_fit"]
