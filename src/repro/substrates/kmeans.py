"""A self-contained KMeans implementation.

KMeans is a substrate used in three places in the reproduction:

* the coarse quantizer of the IVF index (Section 4 of the paper),
* the sub-codebook training of Product Quantization and OPQ,
* the learned-codebook ablation of Appendix F.1.

The implementation uses k-means++ seeding, Lloyd iterations with empty-cluster
re-seeding, and runs entirely on NumPy.  A Lloyd iteration costs one GEMM plus
an in-place epilogue and one stable sort, and the data's squared norms are
computed once per fit; none of it moves a bit (see :func:`kmeans_fit`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError, NotFittedError
from repro.substrates.linalg import as_float_matrix, pairwise_squared_distances
from repro.substrates.linalg import require_finite
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


def _expand(
    cross: np.ndarray, data_sq: np.ndarray, centroid_sq: np.ndarray
) -> np.ndarray:
    """``(|x|^2 + |c|^2) - 2 * cross`` clipped at 0, grouped and clipped as
    :func:`pairwise_squared_distances` does it; doubles ``cross`` in place."""
    dists = np.add(data_sq[:, None], centroid_sq[None, :])
    cross *= 2.0
    dists -= cross
    return np.maximum(dists, 0.0, out=dists)


def _kmeans_plus_plus(
    data: np.ndarray, data_sq: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Choose initial centroids with the k-means++ strategy."""
    n_points = data.shape[0]
    centroids = np.empty((n_clusters, data.shape[1]), dtype=np.float64)

    def distances_to(row: np.ndarray) -> np.ndarray:
        return _expand(data @ row.T, data_sq, np.einsum("ij,ij->i", row, row))[:, 0]

    centroids[0] = data[int(rng.integers(n_points))]
    closest = distances_to(centroids[:1])
    for i in range(1, n_clusters):
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; pick randomly.
            idx = int(rng.integers(n_points))
        else:
            idx = int(rng.choice(n_points, p=closest / total))
        centroids[i] = data[idx]
        np.minimum(closest, distances_to(centroids[i : i + 1]), out=closest)
    return centroids


#: Above this many ``(point, centroid)`` pairs the E-step makes one GEMM per
#: row chunk instead of one over the whole distance matrix (131072x4096 pairs
#: are 4 GiB of float64).  Every pinned workload (the 100k benchmark baseline
#: is ~1.3e8 pairs) stays below it: GEMM rounding may differ between shapes.
_ASSIGN_FULL_ENTRIES = 2**28

#: Pair budget per chunk once chunking triggers (~0.5 GiB of float64).
_ASSIGN_CHUNK_ENTRIES = 2**26

#: Pair budget of one E-step epilogue block: 256 KiB of float64 stay in cache.
_EPILOGUE_ENTRIES = 2**15


class _Assigner:
    """The E-step over fixed ``data``: ``(assignments, best squared distances)``."""

    def __init__(self, data: np.ndarray, n_clusters: int) -> None:
        self.data, self.data_sq = data, np.einsum("ij,ij->i", data, data)
        rows = data.shape[0]
        if rows * n_clusters > _ASSIGN_FULL_ENTRIES:
            rows = min(rows, max(1, _ASSIGN_CHUNK_ENTRIES // n_clusters))
        self.cross = np.empty((rows, n_clusters))

    def __call__(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_points, (chunk, n_clusters) = self.data.shape[0], self.cross.shape
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
        assignments, best = np.empty(n_points, dtype=np.intp), np.empty(n_points)
        step = max(1, _EPILOGUE_ENTRIES // n_clusters)
        for lo in range(0, n_points, chunk):
            hi = min(lo + chunk, n_points)
            cross = np.matmul(self.data[lo:hi], centroids.T, out=self.cross[: hi - lo])
            for at in range(0, hi - lo, step):
                rows = slice(lo + at, min(lo + at + step, hi))
                dists = _expand(cross[at : at + step], self.data_sq[rows], centroid_sq)
                assignments[rows] = nearest = np.argmin(dists, axis=1)
                best[rows] = dists[np.arange(nearest.shape[0]), nearest]
        return assignments, best


def _update_centroids(
    points: np.ndarray, assignments: np.ndarray, best: np.ndarray, centroids: np.ndarray
) -> None:
    """Move each centroid to the mean of its members, listed in row order by one
    stable argsort; empty clusters, in id order, move to the point farthest
    from its centroid (``argmax(best)``), whose ``best`` is then zeroed."""
    order = np.argsort(assignments, kind="stable")
    ends = np.cumsum(np.bincount(assignments, minlength=centroids.shape[0]))
    start = 0
    for cluster_id, end in enumerate(ends.tolist()):
        if end == start:
            farthest = int(np.argmax(best))
            centroids[cluster_id] = points[farthest]
            best[farthest] = 0.0
        else:
            centroids[cluster_id] = points.take(order[start:end], axis=0).mean(axis=0)
        start = end


def kmeans_fit(
    data: np.ndarray,
    n_clusters: int,
    *,
    max_iter: int = 25,
    tol: float = 1e-6,
    rng: RngLike = None,
) -> KMeansResult:
    """Run KMeans on ``data`` and return the fitted centroids.

    Per fit the data's squared norms are computed once; per Lloyd iteration
    the cost is one GEMM plus an in-place, cache-blocked epilogue and one
    stable argsort.  Every bit matches the plain per-cluster loop (GEMM
    shapes, ``(|x|^2 + |c|^2) - 2<x, c>`` clipped at 0, ``mean`` of the
    members in row order, RNG draws), as ``tests/data/kmeans_gate.json`` pins.

    Parameters
    ----------
    data:
        Training points, shape ``(n_points, dim)``; all entries finite.
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
    require_finite(points, "data")

    generator = ensure_rng(rng)
    assign = _Assigner(points, n_clusters)
    centroids = _kmeans_plus_plus(points, assign.data_sq, n_clusters, generator)
    assignments, best = assign(centroids)
    inertia = float(best.sum())
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        _update_centroids(points, assignments, best, centroids)
        assignments, best = assign(centroids)
        new_inertia = float(best.sum())
        if inertia > 0.0 and (inertia - new_inertia) <= tol * inertia:
            inertia = new_inertia
            break
        inertia = new_inertia

    return KMeansResult(centroids, assignments, inertia, n_iter)


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
