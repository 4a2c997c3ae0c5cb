"""Inverted-file (IVF) coarse index.

The IVF index clusters the data with KMeans, builds one bucket (inverted
list) per cluster, and answers queries by scanning only the ``nprobe``
buckets whose centroids are closest to the query.  Section 4 of the paper
combines RaBitQ (and the PQ/OPQ baselines) with this index: quantization
codes are stored per bucket, and the per-cluster centroid doubles as the
normalization centroid of RaBitQ.

Probing ranks every centroid per query with the metric's key kernel.

After :meth:`IVFIndex.fit` the inverted lists are mutable without
re-clustering: :meth:`IVFIndex.assign` finds the nearest existing centroid
for new vectors, :meth:`IVFIndex.append` adds their ids to the buckets, and
:meth:`IVFIndex.keep_rows` drops ids during tombstone compaction (remapping
the surviving ids to their new, contiguous positions).  Because ids are
always appended in ascending order and compaction remaps monotonically,
every bucket's id list stays sorted — which lets the persistence layer
reconstruct the buckets from the flat assignment array alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import L2, resolve_metric
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.substrates.kmeans import kmeans_fit
from repro.substrates.linalg import (
    as_float_matrix,
    require_positive_int,
    topk_indices,
)
from repro.substrates.rng import RngLike, ensure_rng


#: Key of the probe work counter in ``stats`` dicts: the number of centroid
#: keys evaluated.
STAT_KEY_EVALS = "n_key_evals"


def default_n_clusters(n_vectors: int) -> int:
    """Heuristic cluster count scaling with dataset size.

    The paper (following Faiss guidance) uses 4096 clusters for million-scale
    datasets; this helper scales that choice as roughly ``4 * sqrt(N)``,
    clamped so that the average bucket keeps a sensible occupancy at
    laptop-scale sizes.
    """
    if n_vectors <= 0:
        raise InvalidParameterError("n_vectors must be positive")
    estimate = int(round(4.0 * np.sqrt(n_vectors)))
    return max(1, min(estimate, n_vectors, 4096))


@dataclass(frozen=True)
class IVFBucket:
    """One inverted list: the ids of the vectors assigned to a centroid."""

    centroid_id: int
    vector_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.vector_ids.shape[0])


class IVFIndex:
    """KMeans-based inverted-file index.

    Parameters
    ----------
    n_clusters:
        Number of coarse centroids; ``None`` applies
        :func:`default_n_clusters` at fit time.
    kmeans_iters:
        Lloyd iterations of the coarse quantizer.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        *,
        kmeans_iters: int = 15,
        rng: RngLike = None,
    ) -> None:
        if n_clusters is not None:
            require_positive_int(n_clusters, "n_clusters")
        self.n_clusters = n_clusters
        self.kmeans_iters = int(kmeans_iters)
        self._rng = ensure_rng(rng)
        self._centroids: np.ndarray | None = None
        self._centroid_sq: np.ndarray | None = None
        self._buckets: list[IVFBucket] | None = None
        self._assignments: np.ndarray | None = None
        self._dim: int | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._centroids is not None

    @property
    def centroids(self) -> np.ndarray:
        """Coarse centroids, shape ``(n_clusters, dim)``."""
        if self._centroids is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        return self._centroids

    @property
    def buckets(self) -> list[IVFBucket]:
        """All inverted lists."""
        if self._buckets is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        return self._buckets

    @property
    def assignments(self) -> np.ndarray:
        """Cluster id of every indexed vector."""
        if self._assignments is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        return self._assignments

    @property
    def centroid_sq_norms(self) -> np.ndarray:
        """``||c||^2`` per centroid (eagerly cached, see ``_install_centroids``)."""
        if self._centroid_sq is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        return self._centroid_sq

    def _install_centroids(self, centroids: np.ndarray) -> None:
        """Set the centroid matrix and its squared-norm cache atomically.

        Every path that installs centroids (``fit``, ``from_state``) must go
        through this helper: the probe kernel's ``|c|^2`` cache is derived
        state, and computing it here — eagerly, in the same step — makes a
        stale cache unrepresentable (previously the cache was lazily filled
        by the first probe and only *reset* on re-fit, so any future path
        installing centroids without a reset would have served stale norms).
        Eager computation also keeps concurrent probing read-only.
        """
        self._centroids = centroids
        self._centroid_sq = np.einsum("ij,ij->i", centroids, centroids)

    def fit(
        self, data: np.ndarray, *, kmeans_sample_size: int | None = None
    ) -> "IVFIndex":
        """Cluster ``data`` and build the inverted lists.

        ``kmeans_sample_size`` bounds the KMeans training set: when given
        and smaller than ``len(data)``, the centroids are trained on that
        many rows sampled without replacement from the index RNG, and the
        full dataset is then assigned to the trained centroids in bounded
        chunks.  This is what makes million-scale fits tractable — Lloyd
        iterations cost ``O(n_train * n_clusters * dim)`` each, and the
        sample caps ``n_train`` while assignment stays exact for every row.
        """
        mat = as_float_matrix(data, "data")
        if mat.shape[0] == 0:
            raise EmptyDatasetError("cannot build an IVF index over an empty dataset")
        if kmeans_sample_size is not None and kmeans_sample_size <= 0:
            raise InvalidParameterError(
                "kmeans_sample_size must be positive when given"
            )
        self._dim = mat.shape[1]
        n_clusters = (
            self.n_clusters
            if self.n_clusters is not None
            else default_n_clusters(mat.shape[0])
        )
        n_clusters = min(n_clusters, mat.shape[0])
        if kmeans_sample_size is not None and kmeans_sample_size < mat.shape[0]:
            sample_size = max(int(kmeans_sample_size), n_clusters)
            sample = np.sort(
                self._rng.choice(mat.shape[0], size=sample_size, replace=False)
            )
            result = kmeans_fit(
                mat[sample], n_clusters, max_iter=self.kmeans_iters, rng=self._rng
            )
            self._install_centroids(result.centroids)
            self._assignments = self.assign(mat)
        else:
            result = kmeans_fit(
                mat, n_clusters, max_iter=self.kmeans_iters, rng=self._rng
            )
            self._install_centroids(result.centroids)
            self._assignments = np.asarray(result.assignments, dtype=np.int64)
        self._buckets = self._buckets_from_assignments(
            self._assignments, n_clusters
        )
        return self

    #: Cap on the float64 cells of one :meth:`assign` row chunk's
    #: ``(rows, n_clusters, dim)`` difference block (about 256 MiB), reached
    #: only when every centroid needs an exact key.
    _ASSIGN_CHUNK_CELLS = 32_000_000

    @staticmethod
    def _buckets_from_assignments(
        assignments: np.ndarray, n_clusters: int
    ) -> list[IVFBucket]:
        """Build the inverted lists from a flat assignment array.

        One stable argsort + searchsorted pass instead of a per-cluster
        ``flatnonzero`` scan: the stable sort keeps equal keys in positional
        order, so every bucket's id list comes out sorted ascending exactly
        as the per-cluster scan would produce it.
        """
        order = np.argsort(assignments, kind="stable").astype(np.int64)
        boundaries = np.searchsorted(
            assignments[order], np.arange(n_clusters + 1)
        )
        return [
            IVFBucket(
                centroid_id=cluster_id,
                vector_ids=order[boundaries[cluster_id] : boundaries[cluster_id + 1]],
            )
            for cluster_id in range(n_clusters)
        ]

    @classmethod
    def from_state(
        cls,
        centroids: np.ndarray,
        assignments: np.ndarray,
        *,
        kmeans_iters: int = 15,
    ) -> "IVFIndex":
        """Rebuild a fitted index from its centroids and assignment array.

        Used by the persistence layer: because bucket id lists are always
        sorted ascending (see the module docstring), the buckets rebuilt here
        are exactly the ones that were saved.
        """
        centre = as_float_matrix(centroids, "centroids")
        assigned = np.asarray(assignments, dtype=np.int64).reshape(-1)
        if assigned.size and (
            assigned.min() < 0 or assigned.max() >= centre.shape[0]
        ):
            raise InvalidParameterError(
                "assignments reference clusters outside the centroid matrix"
            )
        index = cls(centre.shape[0], kmeans_iters=kmeans_iters)
        index._install_centroids(centre)
        index._assignments = assigned
        index._dim = int(centre.shape[1])
        index._buckets = cls._buckets_from_assignments(assigned, centre.shape[0])
        return index

    # ------------------------------------------------------------------ #
    # Mutation (no re-clustering)
    # ------------------------------------------------------------------ #

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid cluster id for every row of ``vectors``.

        Exactly ``argmin(squared_distances_to_points(centroids, vectors))``,
        ties to the lowest id, at the cost of a GEMM: the norm-expansion keys
        of :meth:`_probe_distances` rank the centroids, and a row recomputes
        the exact (broadcast-difference) key only for centroids within a
        proven rounding bound of its best key.
        """
        mat = as_float_matrix(vectors, "vectors")
        if self._dim is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        if mat.shape[0] and mat.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"vectors have dimension {mat.shape[1]}, index expects {self._dim}"
            )
        if mat.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        centroids, centroid_sq = self.centroids, self.centroid_sq_norms
        dim = mat.shape[1]
        # Expansion keys lie within (D + 2) u (|c| + |x|)^2 of the true
        # distance d and exact keys within (D + 2) u d (u = eps / 2; gamma
        # doubles both, the absolute term covers underflow), so the exact
        # minimum and its ties have key - err <= min(key + err) (1 + 3 gamma).
        gamma = (dim + 4) * np.finfo(np.float64).eps
        out = np.empty(mat.shape[0], dtype=np.int64)
        step = max(1, self._ASSIGN_CHUNK_CELLS // (centroids.shape[0] * dim))
        for lo in range(0, mat.shape[0], step):
            block = mat[lo : lo + step]
            row_sq = np.einsum("ij,ij->i", block, block)
            keys = centroid_sq - 2.0 * (block @ centroids.T) + row_sq[:, None]
            err = np.add.outer(np.sqrt(row_sq), np.sqrt(centroid_sq))
            err = gamma * err * err + (4 * dim + 16) * np.nextafter(0.0, 1.0)
            ceiling = (keys + err).min(axis=1) * (1.0 + 3.0 * gamma)
            # NaN / inf keys (overflowing rows) compare False: they stay in.
            rows, cols = np.nonzero(~(keys - err > ceiling[:, None]))
            diff = centroids[cols] - block[rows]
            exact = np.full(keys.shape, np.inf)
            exact[rows, cols] = np.einsum("ij,ij->i", diff, diff)
            out[lo : lo + step] = np.argmin(exact, axis=1)
        return out

    def append(self, vector_ids: np.ndarray, cluster_ids: np.ndarray) -> None:
        """Add ``vector_ids[i]`` to bucket ``cluster_ids[i]`` for all ``i``.

        ``vector_ids`` must continue the stored ids contiguously (the next
        unused position onward, in order): ids double as positions into the
        flat ``assignments`` array, and the persistence layer rebuilds the
        buckets from that array alone.  A gap would silently desynchronize
        the two, so it is rejected here.
        """
        buckets = self.buckets
        ids = np.asarray(vector_ids, dtype=np.int64).reshape(-1)
        clusters = np.asarray(cluster_ids, dtype=np.int64).reshape(-1)
        if ids.shape[0] != clusters.shape[0]:
            raise InvalidParameterError(
                "vector_ids and cluster_ids must have equal length"
            )
        if ids.shape[0] == 0:
            return
        floor = self._assignments.shape[0] if self._assignments is not None else 0
        expected = np.arange(floor, floor + ids.shape[0], dtype=np.int64)
        if not np.array_equal(ids, expected):
            raise InvalidParameterError(
                f"vector_ids must contiguously extend the index "
                f"({floor} .. {floor + ids.shape[0] - 1}, in order)"
            )
        if clusters.min() < 0 or clusters.max() >= len(buckets):
            raise InvalidParameterError("cluster_ids reference unknown clusters")
        for cid in np.unique(clusters):
            members = ids[clusters == cid]
            bucket = buckets[int(cid)]
            buckets[int(cid)] = IVFBucket(
                centroid_id=bucket.centroid_id,
                vector_ids=np.concatenate([bucket.vector_ids, members]),
            )
        self._assignments = np.concatenate([self.assignments, clusters])

    def keep_rows(self, keep: np.ndarray) -> "IVFIndex":
        """Drop all ids where ``keep`` is ``False``, remapping the survivors.

        Surviving ids are renumbered to their position among the survivors
        (the same remapping applied to the flat index), preserving relative
        order within every bucket.  Centroids are unchanged.
        """
        assignments = self.assignments
        mask = np.asarray(keep, dtype=bool).reshape(-1)
        if mask.shape[0] != assignments.shape[0]:
            raise DimensionMismatchError(
                f"keep mask has length {mask.shape[0]}, index has "
                f"{assignments.shape[0]} ids"
            )
        if mask.all():
            return self
        self._assignments = assignments[mask]
        self._buckets = self._buckets_from_assignments(
            self._assignments, len(self.buckets)
        )
        return self

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        if self._dim is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        if vec.shape[0] != self._dim:
            raise DimensionMismatchError(
                f"query has dimension {vec.shape[0]}, index expects {self._dim}"
            )
        return vec

    def _probe_distances(self, vec: np.ndarray) -> np.ndarray:
        """Squared centroid distances via the norm-expansion GEMV kernel.

        ``|c - q|^2 = |c|^2 - 2 <c, q> + |q|^2`` with the centroid squared
        norms computed once when the centroids are installed (see
        :meth:`_install_centroids`; centroids never change after fitting, and
        eager computation keeps probing a pure read — safe to run from
        several threads at once).  Roughly 7x faster than the
        broadcasted-difference reduction on the probing hot path;
        :meth:`probe` and :meth:`probe_batch` both run exactly this kernel
        per query, so the two paths stay bit-identical.
        """
        return self.centroid_sq_norms - 2.0 * (self.centroids @ vec) + vec @ vec

    def _probe_keys(self, vec: np.ndarray, metric) -> np.ndarray:
        """Per-centroid minimization key ranking clusters for probing.

        For ``metric="l2"`` this is exactly :meth:`_probe_distances` (the
        historical norm-expansion GEMV kernel); similarity metrics rank by
        the metric itself — negated centroid inner products (MIPS) or
        negated centroid cosines — so probing follows the served metric
        instead of only expanded L2 norms.
        """
        if metric is L2 or metric.name == "l2":
            return self._probe_distances(vec)
        return metric.probe_key(self.centroids, self.centroid_sq_norms, vec)

    def _exact_probe(
        self, vec: np.ndarray, nprobe: int, metric, stats: dict | None
    ) -> np.ndarray:
        """Rank every centroid by its key; the per-query kernel of both probes."""
        keys = self._probe_keys(vec, metric)
        if stats is not None:
            stats[STAT_KEY_EVALS] = stats.get(STAT_KEY_EVALS, 0) + keys.shape[0]
        return topk_indices(keys, nprobe).astype(np.int64)

    def probe(
        self,
        query: np.ndarray,
        nprobe: int,
        *,
        metric="l2",
        stats: dict | None = None,
    ) -> np.ndarray:
        """Ids of the ``nprobe`` clusters ranked best by ``metric``.

        The default ``metric="l2"`` probes the centroids closest to the
        query (the historical behaviour, bit-identical); ``"ip"`` /
        ``"cosine"`` probe the centroids with the largest inner product /
        cosine similarity.  ``stats``, when given a dict, accumulates
        ``"n_key_evals"`` — the number of centroid keys evaluated.
        """
        if nprobe <= 0:
            raise InvalidParameterError("nprobe must be positive")
        resolved = resolve_metric(metric)
        vec = self._check_query(query)
        nprobe = min(nprobe, self.centroids.shape[0])
        return self._exact_probe(vec, nprobe, resolved, stats)

    def probe_batch(
        self,
        queries: np.ndarray,
        nprobe: int,
        *,
        metric="l2",
        stats: dict | None = None,
    ) -> np.ndarray:
        """Probed cluster ids for every row of ``queries`` at once.

        Returns an ``(n_queries, min(nprobe, n_clusters))`` matrix whose row
        ``i`` equals ``probe(queries[i], nprobe, metric=metric)`` exactly:
        every row runs the identical per-query ranking kernel and the
        identical selection as the per-query path.
        """
        if nprobe <= 0:
            raise InvalidParameterError("nprobe must be positive")
        resolved = resolve_metric(metric)
        mat = as_float_matrix(queries, "queries")
        if self._dim is None:
            raise NotFittedError("IVFIndex must be fitted before use")
        if mat.shape[0] and mat.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"queries have dimension {mat.shape[1]}, index expects {self._dim}"
            )
        centroids = self.centroids
        nprobe = min(nprobe, centroids.shape[0])
        out = np.empty((mat.shape[0], nprobe), dtype=np.int64)
        for i in range(mat.shape[0]):
            out[i] = self._exact_probe(mat[i], nprobe, resolved, stats)
        return out

    def candidates(
        self, query: np.ndarray, nprobe: int, *, metric="l2"
    ) -> np.ndarray:
        """All vector ids contained in the probed clusters (concatenated).

        ``metric`` selects the probing key exactly as in :meth:`probe`, so
        candidate enumeration follows the served metric (previously this
        always probed under L2 regardless of the metric the caller served).
        """
        cluster_ids = self.probe(query, nprobe, metric=metric)
        buckets = self.buckets
        lists = [buckets[int(cid)].vector_ids for cid in cluster_ids]
        if not lists:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(lists)

    def bucket_sizes(self) -> np.ndarray:
        """Number of vectors per bucket."""
        return np.asarray([len(bucket) for bucket in self.buckets], dtype=np.int64)


__all__ = ["IVFIndex", "IVFBucket", "default_n_clusters", "STAT_KEY_EVALS"]
