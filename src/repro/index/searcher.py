"""IVF-RaBitQ ANN search (Section 4 of the paper).

:class:`IVFQuantizedSearcher` couples the IVF coarse index with RaBitQ codes
and a re-ranking strategy: the codes are encoded per cluster (each
cluster's centroid is the normalization centroid, all clusters share one
rotation) and stored in a single contiguous
:class:`repro.index.arena.CodeArena`, and candidates are re-ranked with the
error-bound rule (no tuning).  Fig. 4's IVF-PQ / IVF-OPQ comparison curves
run through :func:`repro.experiments.ann_search.ivf_baseline_search`
instead.

**Metric-generic serving.**  The searcher serves squared-L2 (default),
inner-product (MIPS) or cosine traffic via the ``metric=`` constructor
argument (:mod:`repro.core.metric`).  The metric threads through the whole
stack: IVF probing ranks centroids by the metric, the fused estimator
derives metric values and confidence bounds from the same per-code factors
(plus, for similarities, centroid-decomposition constants stored alongside
them in the arena), re-ranking flips to maximization with the suffix
extremum of the optimistic bounds, and results are ordered best-first
(ascending distance / descending score).  The ``metric="l2"`` path is
bit-identical to the historical metric-oblivious implementation
(``tests/test_l2_stream_gate.py`` pins archived result streams).

Two query entry points are provided:

* :meth:`IVFQuantizedSearcher.search` — one query at a time, returning a
  :class:`SearchResult` with the retrieved ids, their distances, and cost
  counters (number of estimated distances and of exact re-ranking
  computations) so the benchmark harness can report both accuracy and work.
* :meth:`IVFQuantizedSearcher.search_batch` — the vectorized batch engine.
  IVF probing runs once for the whole query matrix, queries are grouped by
  probed cluster so each cluster's code block is scanned once per query
  group, and re-ranking runs per query on the assembled estimates.  The
  returned :class:`BatchSearchResult` carries per-query results plus
  aggregate cost counters, and is guaranteed to be element-wise identical
  (ids *and* distances) to running :meth:`search` in a loop — batching
  changes throughput, never answers.

Both entry points wrap the same steps of Algorithm 2.
``_prepare`` turns (query, probed cluster) pairs into quantized queries:
``P^-1`` is linear, so the rotated unit residual is ``(P^-1 q - P^-1 c) /
||q - c||``, and each query is rotated once while ``P^-1 C`` is derived
once per index (at ``fit`` and at load); then Eq. 18 rounding against the
index's rounding vector.  ``search`` calls it once for its ``nprobe``
pairs, ``search_batch`` once for all its pairs, grouped by cluster.
``_pair_terms`` derives every per-pair query term the estimate reads
(the undo's ``Δ``, ``v_l``, ``Σq_u``; ``||q - c||``; ``eps0 Δ/2``; the
similarity offsets) once per call, over all pairs.
:func:`repro.core.estimator.estimate_codes` takes prepared rows against
packed codes: one call of the integer-dot kernel, the affine undo of Eq.
19-20 and :func:`repro.core.estimator.fused_estimate`.
The entry points differ only in how they pair rows with codes: ``search``
gathers every probed row once and pairs each code with its own cluster's
query row in one flat pass (terms repeated per code), ``search_batch``
meets each cluster group's rows with that cluster's block (terms as
``(g, 1)`` columns, sliced per group) and scatters the results.

**Hot-path layout.**  Quantized codes live in a contiguous, cluster-grouped
code arena that stores each code once: one ``uint64`` matrix of packed
code words (``B`` bit-planes of ``D`` bits, plane-major — the paper's
``D``-bit string at ``B = 1``) and one fused matrix of per-code estimator
constants (norms, ``<o_bar, o>`` correction terms, error-bound
half-widths, level sums, and the rescales of ``B > 1`` codes — see
:func:`repro.core.estimator.build_code_consts`).  Every width runs the
same code: one encoder (:func:`repro.core.quantizer.encode_rows`), one
constants builder, one integer-dot kernel and one affine undo, each told
the width ``B``; the query-rounding term of the ``B > 1`` bound is the only
width test here.  Distances and bounds for a candidate set are produced by
one integer inner-product pass, one affine undo and one estimate epilogue
(:func:`repro.core.estimator.fused_estimate`); the last two compute each
shared subexpression once and update their buffers in place.  The integer pass
(:func:`repro.core.bitops.binary_dot_uint_batch`) runs AND + popcount on
the packed words when the work is small and unpacks into a per-thread
scratch buffer for one BLAS call when it is large; both are *exact* (every
partial sum is an integer far below 2^53), so the choice never changes an
answer.

``_prepare`` rotates each query with its own ``(1, L)`` GEMV and
otherwise works per row or elementwise, so a row's quantized query does
not depend on the rows prepared beside it.  :class:`repro.core.quantizer.RaBitQ`
prepares its queries with the same helper
(:func:`repro.core.query.rotated_unit_residuals`), so search results are
bit-identical to per-cluster quantizers sharing the index's rotation and
rounding vector — the equivalence suite in
``tests/test_arena_equivalence.py`` checks this against a literal port of
the pre-arena implementation.

**Purity and thread safety.**  Search is a pure function of
(index, query): the uniforms of the randomized rounding (Eq. 18) are one
vector ``u ∈ [0, 1)^L`` drawn at :meth:`IVFQuantizedSearcher.fit` and kept
beside the rotation (see :mod:`repro.core.query` for why that is what the
paper's guarantees need), so a query draws nothing and writes no index
state.  The same query always gets the same answer, whatever was asked
before it and whatever it is batched with, and ``search`` /
``search_batch`` may be called concurrently from several threads on one
fitted searcher with answers *bit-identical to any serial order* (scratch
buffers are thread-local).  Mutation methods are the only writers of index
state; they must not run concurrently with queries or each other.

The index is *mutable* after :meth:`IVFQuantizedSearcher.fit` (the index
lifecycle required by a serving deployment):

* :meth:`IVFQuantizedSearcher.insert` encodes new vectors incrementally —
  nearest-centroid assignment against the existing IVF centroids, RaBitQ
  encoding against the fitted rotation and per-cluster centroids — without
  re-clustering or re-encoding anything already stored.  A batch is one
  encode and one arena scatter, with at most one re-layout per insert
  (regions keep geometric capacity slack); ``fit`` encodes in row blocks.
* :meth:`IVFQuantizedSearcher.delete` removes vectors by id using
  tombstones; deleted vectors stop appearing in results immediately, and
  :meth:`IVFQuantizedSearcher.compact` (triggered automatically once the
  tombstone fraction reaches ``compact_threshold``) reclaims their storage.
* Results always report *external* ids: a vector keeps its id across any
  interleaving of inserts, deletes and compactions.  After a fresh ``fit``
  the external ids are ``0 .. n-1`` (the row positions), so existing code
  is unaffected.

Tombstone filtering is applied identically on the sequential and batch
paths (the full per-cluster estimate is always computed, then dead rows are
masked out), so the batch ≡ sequential guarantee holds at every point of the
lifecycle.  A fitted searcher — including tombstones, id mapping and the
rounding vector — can be serialized with
:func:`repro.io.persistence.save_searcher` and reloaded bit-identically with
:func:`repro.io.persistence.load_searcher`.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.core.bitops import pack_level_planes
from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    DistanceEstimate,
    build_code_consts,
    estimate_codes,
    n_consts_for,
)
from repro.core.metric import Metric, resolve_metric
from repro.core.quantizer import encode_rows
from repro.core.query import (
    quantize_query_matrix,
    rotate_rows,
    rotated_unit_residuals,
    sample_rounding_offsets,
)
from repro.core.rotation import Rotation, make_rotation
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
)
from repro.index.arena import CodeArena
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.rerank import ErrorBoundReranker, Reranker
from repro.substrates.linalg import (
    as_float_matrix,
    as_int_ids,
    require_finite,
    require_positive_int,
)
from repro.substrates.rng import RngLike, ensure_rng


#: Cap on the number of live (query, candidate) estimate pairs per
#: processed query chunk in :meth:`IVFQuantizedSearcher.search_batch`: the
#: chunk's flat buffers (4 float64 fields and the int64 candidate slots)
#: hold 40 B a pair, roughly 320 MB at this setting.  The reranker's
#: ``+inf``-padded estimate blocks (``ErrorBoundReranker._rerank_rows``)
#: never hold more than twice as many cells as the chunk has pairs.
_SEARCH_BATCH_MAX_PAIRS = 8_000_000

#: Cap on the float64 cells (rows x code length) of one encoding block in
#: ``IVFQuantizedSearcher._encode``: 4 MiB per temporary, 4096 rows at L=128.
_ENCODE_BLOCK_CELLS = 1 << 19

@dataclass(frozen=True)
class SearchResult:
    """Result of one ANN query.

    Attributes
    ----------
    ids:
        Retrieved vector ids, best first (ascending reported distance for
        ``metric="l2"``, descending similarity score for ``"ip"`` /
        ``"cosine"``).
    distances:
        Metric values of the retrieved vectors — squared distances under
        ``metric="l2"``, similarity scores under ``"ip"`` / ``"cosine"``
        (exact when re-ranking computed them, estimated otherwise).
    n_candidates:
        Number of candidates whose distance was *estimated* (i.e. the total
        size of the probed clusters).
    n_exact:
        Number of candidates whose *exact* distance was computed during
        re-ranking.
    """

    ids: np.ndarray
    distances: np.ndarray
    n_candidates: int
    n_exact: int


@dataclass(frozen=True)
class BatchSearchResult:
    """Results of a batch of ANN queries, with aggregate cost counters.

    Iterating (or indexing) yields one :class:`SearchResult` per query, so
    code written against the per-query API works unchanged on batch output.

    Attributes
    ----------
    ids:
        Per-query retrieved ids, best first (ascending reported distance
        for ``metric="l2"``, descending similarity score for ``"ip"`` /
        ``"cosine"``).
    distances:
        Per-query metric values of the retrieved vectors — squared
        distances under ``metric="l2"``, similarity scores under ``"ip"`` /
        ``"cosine"`` (exact when re-ranking computed them, estimated
        otherwise).
    n_candidates:
        Per-query number of estimated candidates, shape ``(n_queries,)``.
    n_exact:
        Per-query number of exact re-ranking computations, shape
        ``(n_queries,)``.
    """

    ids: tuple[np.ndarray, ...]
    distances: tuple[np.ndarray, ...]
    n_candidates: np.ndarray
    n_exact: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> SearchResult:
        return SearchResult(
            ids=self.ids[i],
            distances=self.distances[i],
            n_candidates=int(self.n_candidates[i]),
            n_exact=int(self.n_exact[i]),
        )

    def __iter__(self) -> Iterator[SearchResult]:
        for i in range(len(self.ids)):
            yield self[i]

    @property
    def total_candidates(self) -> int:
        """Total number of estimated candidates across the batch."""
        return int(self.n_candidates.sum())

    @property
    def total_exact(self) -> int:
        """Total number of exact re-ranking computations across the batch."""
        return int(self.n_exact.sum())


def _empty_estimate() -> tuple[np.ndarray, DistanceEstimate]:
    empty = np.empty(0, dtype=np.float64)
    return np.empty(0, dtype=np.int64), DistanceEstimate(
        distances=empty,
        lower_bounds=empty.copy(),
        upper_bounds=empty.copy(),
        inner_products=empty.copy(),
    )


class IVFQuantizedSearcher:
    """IVF-RaBitQ ANN search: IVF probing, RaBitQ codes and a re-ranker.

    Parameters
    ----------
    kind:
        Positional only, and ``"rabitq"`` is its one accepted value (the
        paper's per-cluster-encoded RaBitQ codes in a contiguous arena).
    n_clusters:
        Number of IVF clusters (``None`` = size-scaled default).
    rabitq_config:
        Configuration of the per-cluster RaBitQ encoding.
    reranker:
        Re-ranking strategy; defaults to the error-bound rule.
    rng:
        Seed or generator for the IVF clustering.
    compact_threshold:
        Tombstone fraction at which :meth:`delete` triggers an automatic
        :meth:`compact` (``None`` disables auto-compaction; explicit
        ``compact()`` calls still work).
    metric:
        The served metric: ``"l2"`` (squared Euclidean distance, the
        default and the paper's setting), ``"ip"`` (maximum-inner-product
        search) or ``"cosine"`` (cosine similarity) — see
        :mod:`repro.core.metric`.  The metric threads through every layer:
        probing ranks centroids by it, the fused estimator emits
        metric-appropriate values and bounds, re-ranking flips to
        maximization for similarities, and results report metric values
        best-first.
    bits:
        Code width ``B`` in bits per dimension.  ``None`` (the default)
        keeps the width of ``rabitq_config`` (itself defaulting to 1, the
        paper's binary construction); an explicit value overrides it.
        Multi-bit widths (2 / 4 / 8) store scalar-quantized residual
        magnitudes as extra bit-planes for a space/accuracy trade-off.
    """

    def __init__(
        self,
        # Kept only because callers pass "rabitq" positionally; it can go
        # once those call sites drop it.
        kind: str = "rabitq",
        /,
        *,
        n_clusters: int | None = None,
        rabitq_config: Optional[RaBitQConfig] = None,
        reranker: Optional[Reranker] = None,
        rng: RngLike = None,
        compact_threshold: float | None = 0.25,
        metric: str | Metric = "l2",
        bits: int | None = None,
    ) -> None:
        if kind != "rabitq":
            raise InvalidParameterError(
                f"IVFQuantizedSearcher serves RaBitQ codes only (kind must be "
                f"'rabitq', got {kind!r}); baseline quantizers run through "
                "repro.experiments.ann_search.ivf_baseline_search"
            )
        if n_clusters is not None:
            require_positive_int(n_clusters, "n_clusters")
        if compact_threshold is not None and not 0.0 < compact_threshold <= 1.0:
            raise InvalidParameterError(
                "compact_threshold must lie in (0, 1] or be None"
            )
        self._metric = resolve_metric(metric)
        self.n_clusters = n_clusters
        self.rabitq_config = (
            rabitq_config if rabitq_config is not None else RaBitQConfig(seed=0)
        )
        if bits is not None:
            # Validation (supported widths) happens in the config itself.
            self.rabitq_config = self.rabitq_config.with_overrides(
                bits=int(bits)
            )
        self.reranker: Reranker = (
            reranker if reranker is not None else ErrorBoundReranker()
        )
        self.compact_threshold = compact_threshold
        self._rng = ensure_rng(rng)
        self._ivf: IVFIndex | None = None
        self._flat: FlatIndex | None = None
        self._arena: CodeArena | None = None
        self._shared_rotation = None
        self._rounding_offsets: np.ndarray | None = None
        # P^-1 C, one rotated centroid per row (see _install_rotation).
        self._rotated_centroids: np.ndarray | None = None
        # Lifecycle state: slot -> external id, external id -> slot, and the
        # per-slot tombstone mask (True = live).
        self._ids: np.ndarray | None = None
        self._id_to_slot: dict[int, int] = {}
        self._live: np.ndarray | None = None
        self._n_dead = 0
        self._next_id = 0
        # Query-time work areas: the scratch-buffer pool (grown on demand,
        # reused across queries; one pool *per thread*, so concurrent
        # searches never share a buffer).
        self._tls = threading.local()
        # Crash-recovery state, populated by the persistence layer: the
        # UUID of the archive generation this searcher was loaded from (or
        # last saved as) and the attached mutation journal, if any.
        self._archive_uuid: str | None = None
        self._journal = None

    # ------------------------------------------------------------------ #
    # Index phase
    # ------------------------------------------------------------------ #

    @property
    def metric(self) -> str:
        """Name of the served metric (``"l2"``, ``"ip"`` or ``"cosine"``)."""
        return self._metric.name

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._ivf is not None

    @property
    def ivf(self) -> IVFIndex:
        """The underlying IVF coarse index."""
        if self._ivf is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        return self._ivf

    @property
    def flat(self) -> FlatIndex:
        """The exact index used for re-ranking."""
        if self._flat is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        return self._flat

    @property
    def dim(self) -> int:
        """Vector dimensionality served by this searcher."""
        return self.flat.dim

    @property
    def arena(self) -> CodeArena:
        """The contiguous code arena."""
        if self._arena is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        return self._arena

    @property
    def bits(self) -> int:
        """Code width ``B`` in bits per dimension (1 for binary RaBitQ)."""
        return int(self.rabitq_config.bits)

    def _encode(
        self, data: np.ndarray, order: np.ndarray, cluster_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``data[order]``, row ``i`` against cluster ``cluster_ids[i]``.

        ``cluster_ids`` must be grouped, as a stable sort by cluster leaves
        them.  Returns ``(codes, consts)`` in the arena's layout: packed
        code words (:func:`pack_level_planes` of the levels) and the fused
        constants (with ``<o_r, c>`` and ``||o_r||`` under similarity
        metrics, and the rescale row for ``B > 1``).  One :func:`encode_rows` call covers a block of rows of
        any clusters, so memory stays bounded; blocks are cut at cluster
        boundaries because ``<o_r, c>`` stays one GEMV per cluster, whose
        BLAS rounding depends on its rows and which archives pin.
        """
        centroids = self._ivf.centroids
        code_length = self._shared_rotation.dim
        n = order.shape[0]
        codes = np.empty((n, self.bits * -(-code_length // 64)), np.uint64)
        consts = np.empty((n_consts_for(self._metric, self.bits), n))
        runs = np.flatnonzero(np.diff(cluster_ids)) + 1
        heads = np.concatenate([[0], runs, [n]])
        step = max(1, _ENCODE_BLOCK_CELLS // code_length)
        cuts = np.union1d(heads[np.searchsorted(heads, np.arange(0, n, step))], n)
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            rows, cids = data[order[lo:hi]], cluster_ids[lo:hi]
            block_levels, level_sums, alignments, norms, rescales = encode_rows(
                rows, centroids[cids], self._shared_rotation, code_length, self.bits
            )
            codes[lo:hi] = pack_level_planes(block_levels, self.bits)
            raw_terms = {}
            if self._metric.higher_is_better:
                dots = np.empty(hi - lo)
                bounds = heads[(heads >= lo) & (heads <= hi)] - lo
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                    dots[a:b] = rows[a:b] @ centroids[cids[a]]
                raw_terms = {
                    "dot_centroid": dots,
                    "raw_norms": np.sqrt(np.einsum("ij,ij->i", rows, rows)),
                }
            consts[:, lo:hi] = build_code_consts(
                alignments,
                norms,
                level_sums,
                code_length,
                self.rabitq_config.epsilon0,
                metric=self._metric,
                rescales=rescales,
                **raw_terms,
            )
        return codes, consts

    def _install_rotation(
        self, rotation: Rotation, rounding_offsets: np.ndarray
    ) -> None:
        """Install the shared rotation ``P`` and rounding vector; derive ``P^-1 C``.

        The one owner of the rotation state, called by :meth:`fit` and by
        :func:`repro.io.persistence.load_searcher` once the IVF centroids
        are in place.  Centroids never change after ``fit``, so the rotated
        centroids are derived here only — one :func:`rotate_rows` GEMV per
        centroid, whatever holds the centroids (memory or a mapped file).
        """
        self._shared_rotation = rotation
        self._rounding_offsets = rounding_offsets
        self._rotated_centroids = rotate_rows(rotation, self._ivf.centroids)

    def fit(
        self, data: np.ndarray, *, kmeans_sample_size: int | None = None
    ) -> "IVFQuantizedSearcher":
        """Build the IVF index and RaBitQ-encode ``data`` into the arena.

        External ids are assigned positionally (``0 .. n-1``); they remain
        stable across later :meth:`insert` / :meth:`delete` /
        :meth:`compact` calls.  ``kmeans_sample_size`` caps the KMeans
        training set for million-scale fits (see :meth:`IVFIndex.fit`);
        assignment, encoding and re-ranking always cover every row.
        """
        mat = as_float_matrix(data, "data")
        require_finite(mat, "data")
        self._flat = FlatIndex(mat)
        self._ivf = IVFIndex(self.n_clusters, rng=self._rng).fit(
            mat, kmeans_sample_size=kmeans_sample_size
        )

        # All clusters share one rotation, so a query is rotated once and
        # each probed cluster's frame is reached by subtracting P^-1 c.
        code_length = self.rabitq_config.resolve_code_length(mat.shape[1])
        self._install_rotation(
            make_rotation(self.rabitq_config.rotation, code_length, self._rng),
            sample_rounding_offsets(self.rabitq_config.seed, code_length),
        )
        assignments = self._ivf.assignments
        order = np.argsort(assignments, kind="stable")
        codes, consts = self._encode(mat, order, assignments[order])
        self._arena = CodeArena.from_sections(
            code_length,
            consts.shape[0],
            codes=codes,
            consts=consts,
            slots=order.astype(np.int64),
            sizes=np.bincount(assignments, minlength=len(self._ivf.buckets)),
            bits=self.bits,
        )
        n = mat.shape[0]
        self._ids = np.arange(n, dtype=np.int64)
        self._id_to_slot = {i: i for i in range(n)}
        self._live = np.ones(n, dtype=bool)
        self._n_dead = 0
        self._next_id = n
        self._tls = threading.local()
        return self

    # ------------------------------------------------------------------ #
    # Mutation phase (index lifecycle)
    # ------------------------------------------------------------------ #

    @property
    def n_total(self) -> int:
        """Number of stored slots, including tombstoned ones."""
        if self._live is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        return int(self._live.shape[0])

    @property
    def n_deleted(self) -> int:
        """Number of tombstoned (deleted but not yet compacted) vectors."""
        if self._live is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        return self._n_dead

    @property
    def n_live(self) -> int:
        """Number of searchable vectors."""
        return self.n_total - self.n_deleted

    @property
    def live_ids(self) -> np.ndarray:
        """External ids of all searchable vectors (ascending slot order)."""
        if self._ids is None or self._live is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        return self._ids[self._live].copy()

    def _journal_record(self, op: str, **arrays: np.ndarray) -> None:
        """Append a mutation record when a journal is attached (else no-op)."""
        if self._journal is not None:
            self._journal.record(op, **arrays)

    def _journal_suspended(self):
        """Silence journaling inside the block (nested implied mutations)."""
        if self._journal is not None:
            return self._journal.suspend()
        return contextlib.nullcontext()

    def insert(
        self, vectors: np.ndarray, ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Add new vectors to the fitted index and return their external ids.

        Each vector is assigned to the nearest existing IVF centroid and
        RaBitQ-encoded against the fitted rotation and that cluster's
        centroid — no re-clustering and no re-encoding of existing vectors.
        The batch is one vectorized pass whatever clusters its rows land
        in: one assignment GEMM, one encode of the cluster-sorted rows, then
        one scatter into the arena, with at most one re-layout per insert.
        Assignment and encoding run before any state changes, so an insert
        that raises leaves the index as it was.  Estimates for previously
        stored vectors are bit-identical before and after the insert.

        Parameters
        ----------
        vectors:
            New raw vectors, shape ``(n_new, dim)`` (or a single vector).
        ids:
            Optional external ids for the new vectors; must be unique and
            not currently present.  Default: consecutive fresh ids.
        """
        if self._ivf is None or self._flat is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        mat = as_float_matrix(vectors, "vectors")
        n_new = mat.shape[0]
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        if mat.shape[1] != self._flat.dim:
            raise DimensionMismatchError(
                f"vectors have dimension {mat.shape[1]}, index expects "
                f"{self._flat.dim}"
            )
        require_finite(mat, "vectors")
        if ids is None:
            new_ids = np.arange(self._next_id, self._next_id + n_new, dtype=np.int64)
        else:
            new_ids = as_int_ids(ids)
            if new_ids.shape[0] != n_new:
                raise InvalidParameterError(
                    "need exactly one external id per inserted vector"
                )
            if np.unique(new_ids).shape[0] != n_new:
                raise InvalidParameterError("inserted ids must be unique")
            collisions = [i for i in new_ids.tolist() if i in self._id_to_slot]
            if collisions:
                raise InvalidParameterError(
                    f"ids already present in the index: {collisions[:5]}"
                )

        cluster_ids = self._ivf.assign(mat)
        order = np.argsort(cluster_ids, kind="stable")
        codes, consts = self._encode(mat, order, cluster_ids[order])
        slots = self._flat.add(mat)
        self._ivf.append(slots, cluster_ids)
        assert self._arena is not None
        self._arena.append(cluster_ids[order], codes, consts, slots[order])

        assert self._ids is not None and self._live is not None
        self._ids = np.concatenate([self._ids, new_ids])
        self._live = np.concatenate([self._live, np.ones(n_new, dtype=bool)])
        for slot, ext in zip(slots.tolist(), new_ids.tolist()):
            self._id_to_slot[ext] = slot
        self._next_id = max(self._next_id, int(new_ids.max()) + 1)
        # Journal the *resolved* ids: replay must never re-derive id
        # assignment (the fresh-id counter may have moved since).
        self._journal_record("insert", vectors=mat, ids=new_ids)
        return new_ids

    def delete(self, ids: np.ndarray | int) -> int:
        """Tombstone the given external ids and return how many were removed.

        Deleted vectors stop appearing in search results immediately; their
        storage is reclaimed by :meth:`compact`, which runs automatically
        once the tombstone fraction reaches ``compact_threshold``.  Unknown
        (or already-deleted) ids raise :class:`InvalidParameterError`;
        duplicate ids in the request are collapsed.
        """
        if self._ivf is None or self._live is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        requested = np.unique(as_int_ids(ids))
        slots = []
        missing = []
        for ext in requested.tolist():
            slot = self._id_to_slot.get(ext)
            if slot is None:
                missing.append(ext)
            else:
                slots.append((ext, slot))
        if missing:
            raise InvalidParameterError(
                f"cannot delete unknown or already-deleted ids: {missing[:5]}"
            )
        for ext, slot in slots:
            del self._id_to_slot[ext]
            self._live[slot] = False
        self._n_dead += len(slots)
        if (
            self.compact_threshold is not None
            and self._n_dead >= self.compact_threshold * self._live.shape[0]
        ):
            # Replaying the delete record re-triggers this compaction
            # deterministically, so journaling it too would duplicate it.
            with self._journal_suspended():
                self.compact()
        self._journal_record("delete", ids=requested)
        return len(slots)

    def compact(self) -> int:
        """Physically drop tombstoned vectors; return the number reclaimed.

        Dead rows are removed from the flat index, the inverted lists and
        the code arena, and the surviving slots are renumbered contiguously.
        External ids are untouched, and because every removed row is
        row-local, search results (ids, distances *and* cost counters) are
        identical before and after a compaction.
        """
        if self._ivf is None or self._flat is None or self._live is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        if self._n_dead == 0:
            return 0
        keep = self._live.copy()
        arena = self._arena
        assert arena is not None and self._ids is not None
        arena.compact(keep)
        self._ivf.keep_rows(keep)
        self._flat.keep_rows(keep)
        self._ids = self._ids[keep]
        self._live = np.ones(self._ids.shape[0], dtype=bool)
        self._id_to_slot = {
            int(ext): slot for slot, ext in enumerate(self._ids.tolist())
        }
        reclaimed = self._n_dead
        self._n_dead = 0
        # The no-reclaim early return above skips the record: a replayed
        # no-op compact would be harmless, but not journaling it keeps the
        # journal a faithful log of state *changes*.
        self._journal_record("compact")
        return reclaimed

    # ------------------------------------------------------------------ #
    # Query phase
    # ------------------------------------------------------------------ #

    def _scratch_get(self, name: str, size: int, dtype) -> np.ndarray:
        """A flat scratch buffer of at least ``size`` elements (reused).

        Buffers live in thread-local storage: each thread querying the
        searcher gets (and reuses) its own pool, so concurrent ``search`` /
        ``search_batch`` calls never write into a shared work area.
        """
        store = getattr(self._tls, "scratch", None)
        if store is None:
            store = {}
            self._tls.scratch = store
        buf = store.get(name)
        if buf is None or buf.size < size:
            capacity = max(size, 2 * buf.size if buf is not None else 0)
            buf = np.empty(capacity, dtype=dtype)
            store[name] = buf
        return buf

    def _prepare(
        self, queries: np.ndarray, query_rows: np.ndarray, cluster_ids: np.ndarray
    ) -> tuple:
        """Prepare (query, probed cluster) pairs for estimation (Alg. 2, lines 1-2).

        Pair ``i`` is ``queries[query_rows[i]]`` in the frame of cluster
        ``cluster_ids[i]``.  Returns ``(quantized, query_norms)``: the
        :class:`repro.core.query.QuantizedQueryMatrix` of the rotated unit
        residuals ``(P^-1 q - P^-1 c) / ||q - c||`` — each query rotated
        once, the cluster's ``P^-1 c`` taken from the index — quantized
        against the index's rounding vector, and ``||q - c||`` per pair
        (:func:`repro.core.query.rotated_unit_residuals`).  Every step is per
        row or elementwise, so a pair's result does not depend on the pairs
        beside it; a query on its centroid becomes the zero row, which
        quantizes to ``Δ = 1`` and codes 0.
        """
        config = self.rabitq_config
        rotated, query_norms = rotated_unit_residuals(
            self._shared_rotation,
            queries,
            self._ivf.centroids,
            self._rotated_centroids,
            query_rows,
            cluster_ids,
        )
        quantized = quantize_query_matrix(
            rotated,
            config.query_bits,
            randomized=config.randomized_rounding,
            offsets=self._rounding_offsets,
            with_bitplanes=False,
        )
        return quantized, query_norms

    def _pair_terms(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray,
        cluster_ids: np.ndarray,
        quantized,
        query_norms: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """The per-pair query terms of prepared pairs, one value per pair.

        Pair ``i`` is as in :meth:`_prepare`, whose outputs are passed in;
        the result is the ``terms`` of :func:`estimate_codes`.
        ``delta`` (Δ), ``lower`` (``v_l``) and ``sums`` (``Σq_u``) feed the
        affine undo; the others are :func:`fused_estimate`'s keyword terms:
        ``query_norms`` (``||q - c||``), ``query_rounding`` (``eps0 Δ/2``,
        ``B > 1`` only) and, under similarity metrics, ``query_offset``
        (``<q, c> - ||c||^2``) and ``query_raw_norm`` (cosine).
        """
        terms = {
            "delta": quantized.delta,
            "lower": quantized.lower,
            "sums": quantized.sum_codes.astype(np.float64),
            "query_norms": query_norms,
        }
        if self.bits > 1:
            eps0 = float(self.rabitq_config.epsilon0)
            terms["query_rounding"] = 0.5 * eps0 * quantized.delta
        if self._metric.higher_is_better:
            terms["query_offset"] = np.array(
                [
                    self._query_offset(queries[qi], cid)
                    for qi, cid in zip(query_rows.tolist(), cluster_ids.tolist())
                ]
            )
        if self._metric.name == "cosine":
            raw_norms = np.array([float(np.sqrt(np.dot(row, row))) for row in queries])
            terms["query_raw_norm"] = raw_norms[query_rows]
        return terms

    def _live_only(
        self, cand: np.ndarray, estimate: DistanceEstimate
    ) -> tuple[np.ndarray, DistanceEstimate, np.ndarray | None]:
        """Drop tombstoned candidates from an already-computed estimate.

        The third item is the live mask applied, or ``None`` if every
        candidate is live.
        """
        if self._n_dead:
            mask = self._live[cand]
            if not mask.all():
                return cand[mask], DistanceEstimate(
                    distances=estimate.distances[mask],
                    lower_bounds=estimate.lower_bounds[mask],
                    upper_bounds=estimate.upper_bounds[mask],
                    inner_products=estimate.inner_products[mask],
                ), mask
        return cand, estimate, None

    def _query_offset(self, query: np.ndarray, cid: int) -> float:
        """``<q, c> - ||c||^2``, the similarity metrics' per-cluster offset."""
        return float(np.dot(query, self._ivf.centroids[cid])) - float(
            self._ivf.centroid_sq_norms[cid]
        )

    def _estimate_rabitq(
        self, query: np.ndarray, cluster_ids: np.ndarray
    ) -> tuple[np.ndarray, DistanceEstimate]:
        """Fused estimation for all live vectors in the probed clusters.

        The candidate set is scored in one flat pass, in probe order: the
        query's probed pairs are prepared in one :meth:`_prepare` call, the
        probed arena rows are gathered once, and one :func:`estimate_codes`
        call pairs each code with its own cluster's query row (the
        :meth:`_pair_terms` repeated over the cluster's codes).  Tombstoned
        rows are masked out *after* the full estimate.
        """
        arena = self._arena
        assert arena is not None
        cluster_ids = cluster_ids[arena.sizes[cluster_ids] > 0]
        counts = arena.sizes[cluster_ids]
        total = int(counts.sum())
        if total == 0:
            return _empty_estimate()
        rows = arena.rows_of(cluster_ids)
        cand = arena.slots[rows]
        pair_rows = np.zeros(cluster_ids.shape[0], np.intp)
        quantized, query_norms = self._prepare(query[None, :], pair_rows, cluster_ids)
        terms = self._pair_terms(
            query[None, :], pair_rows, cluster_ids, quantized, query_norms
        )
        estimate = estimate_codes(
            arena.codes[rows],
            arena.consts[:, rows],
            quantized.codes,
            {name: np.repeat(term, counts) for name, term in terms.items()},
            code_length=arena.code_length,
            bits=self.bits,
            metric=self._metric,
            segments=counts,
            scratch=self._scratch_get(
                "levels", total * arena.code_length, np.float64
            ),
        )
        cand, estimate, _ = self._live_only(cand, estimate)
        return cand, estimate

    def search(self, query: np.ndarray, k: int, *, nprobe: int = 8) -> SearchResult:
        """Answer one ANN query.

        Parameters
        ----------
        query:
            Raw query vector.
        k:
            Number of neighbours to return.
        nprobe:
            Number of IVF clusters to scan.
        """
        row = np.asarray(query, dtype=np.float64).reshape(1, -1)
        vec = self._checked_queries(row, k, nprobe)[0]
        cluster_ids = self._ivf.probe(vec, nprobe, metric=self._metric)
        candidate_ids, estimate = self._estimate_rabitq(vec, cluster_ids)
        ids, dists, n_exact = self.reranker.rerank(
            vec, candidate_ids, estimate, self._flat, k, metric=self._metric
        )
        return SearchResult(
            ids=self._to_external_ids(ids),
            distances=dists,
            n_candidates=int(candidate_ids.shape[0]),
            n_exact=n_exact,
        )

    def _checked_queries(
        self, queries: np.ndarray, k: int, nprobe: int
    ) -> np.ndarray:
        """The validated ``(n, dim)`` float64 query matrix of a search call."""
        if self._ivf is None or self._flat is None:
            raise NotFittedError("IVFQuantizedSearcher must be fitted before use")
        require_positive_int(k, "k")
        require_positive_int(nprobe, "nprobe")
        mat = as_float_matrix(queries, "queries")
        if mat.shape[0] and mat.shape[1] != self._flat.dim:
            raise InvalidParameterError(
                f"queries have {mat.shape[1]} dimensions, searcher expects "
                f"{self._flat.dim}"
            )
        require_finite(mat, "queries")
        return mat

    def _to_external_ids(self, slots: np.ndarray) -> np.ndarray:
        """Map internal slot positions to the stable external ids."""
        assert self._ids is not None
        return self._ids[np.asarray(slots, dtype=np.intp)]

    def _estimate_rabitq_batch(
        self, query_mat: np.ndarray, probes: np.ndarray
    ) -> tuple[np.ndarray, DistanceEstimate, np.ndarray]:
        """Grouped-by-cluster fused batch estimation for all queries at once.

        The (query, probed cluster) pairs are grouped by cluster, prepared
        by one :meth:`_prepare` call, and their query terms
        (:meth:`_pair_terms`: the undo's row terms, ``||q - c||``, ``eps0
        Δ/2`` and the similarity terms) are derived once, over all pairs,
        as ``(n_pairs, 1)`` columns; so is where each pair's run of
        candidates starts in the flat buffers.  The group loop re-derives
        nothing: one :func:`estimate_codes` call meets a group's rows (the
        columns sliced) with its cluster's contiguous code block, and one
        scatter per field puts each row at its query's range, in
        probed-cluster order, exactly the layout of
        :meth:`_estimate_rabitq`.  Every row of a group is prepared and
        estimated independently of the others, so each query's output is
        bit-identical to the sequential path's whatever it is batched with.

        Returns ``(candidate_ids, estimate, offsets)``: query ``i`` owns
        the range ``offsets[i]:offsets[i + 1]`` of the flat candidates and
        of every estimate field, tombstones already masked out (once, over
        the flat buffers).
        """
        arena = self._arena
        assert arena is not None
        n_queries, width = probes.shape
        flat_cids = probes.ravel()
        pair_sizes = arena.sizes[flat_cids]
        qoff = np.zeros(n_queries + 1, dtype=np.int64)
        np.cumsum(pair_sizes.reshape(n_queries, width).sum(axis=1), out=qoff[1:])
        total = int(qoff[-1])

        # Group (query, probe position) pairs by cluster: a single stable
        # argsort of the flattened probe matrix (stable => ascending query
        # order inside every cluster group).
        order = np.argsort(flat_cids, kind="stable")
        sorted_cids = flat_cids[order]
        starts = np.flatnonzero(np.diff(sorted_cids, prepend=sorted_cids[:1] - 1))
        ends = np.append(starts[1:], order.shape[0])
        nonempty = arena.sizes[sorted_cids[starts]] > 0
        # Where each pair's run of candidates starts in the flat buffers
        # (its query's range, in probe order), in group order.
        pair_dest = np.zeros(order.shape[0] + 1, dtype=np.int64)
        np.cumsum(pair_sizes, out=pair_dest[1:])
        pair_dest = pair_dest[order]

        pair_rows = order // width
        quantized, query_norms = self._prepare(query_mat, pair_rows, sorted_cids)
        terms = self._pair_terms(
            query_mat, pair_rows, sorted_cids, quantized, query_norms
        )
        columns = {name: term[:, None] for name, term in terms.items()}
        fields = [np.empty(total, dtype=np.float64) for _ in range(4)]
        cand = np.empty(total, dtype=np.int64)
        runs = np.arange(int(arena.sizes.max(initial=0)))
        for seg_start, seg_end in zip(
            starts[nonempty].tolist(), ends[nonempty].tolist()
        ):
            start, end = arena.cluster_range(int(sorted_cids[seg_start]))
            rows = slice(seg_start, seg_end)
            estimate = estimate_codes(
                arena.codes[start:end],
                arena.consts[:, start:end],
                quantized.codes[rows],
                {name: column[rows] for name, column in columns.items()},
                code_length=arena.code_length,
                bits=self.bits,
                metric=self._metric,
                scratch=self._scratch_get(
                    "levels", (end - start) * arena.code_length, np.float64
                ),
            )
            dest = pair_dest[rows, None] + runs[: end - start]
            fields[0][dest] = estimate.distances
            fields[1][dest] = estimate.lower_bounds
            fields[2][dest] = estimate.upper_bounds
            fields[3][dest] = estimate.inner_products
            cand[dest] = arena.slots[start:end]

        # Tombstones are masked out of the already-computed estimates
        # exactly as on the sequential path; each query keeps its live rows
        # in order, so its offsets count the live rows before it.
        cand, estimate, live = self._live_only(cand, DistanceEstimate(*fields))
        if live is not None:
            kept = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(live, out=kept[1:])
            qoff = kept[qoff]
        return cand, estimate, qoff

    def search_batch(
        self, queries: np.ndarray, k: int, *, nprobe: int = 8
    ) -> BatchSearchResult:
        """Answer a batch of ANN queries with the vectorized engine.

        Probing, query preparation and distance estimation are batched
        (queries are grouped by probed cluster so each cluster's code block
        is scanned once per query group), and the reranker receives the
        whole chunk as one flat batch (:meth:`Reranker.rerank_batch`).
        The results — ids *and* distances — are element-wise identical to
        ``[self.search(q, k, nprobe=nprobe) for q in queries]``; prefer this
        entry point whenever more than a handful of queries are available at
        once.

        Parameters
        ----------
        queries:
            Raw query matrix, shape ``(n_queries, dim)``.
        k:
            Number of neighbours to return per query.
        nprobe:
            Number of IVF clusters to scan per query.
        """
        query_mat = self._checked_queries(queries, k, nprobe)
        n_queries = query_mat.shape[0]
        if n_queries == 0:
            return BatchSearchResult(
                ids=(),
                distances=(),
                n_candidates=np.empty(0, dtype=np.int64),
                n_exact=np.empty(0, dtype=np.int64),
            )

        probes = self._ivf.probe_batch(query_mat, nprobe, metric=self._metric)

        # Bound the live (query, candidate) estimate tensors by processing
        # very large batches in query chunks, sized from the *actual* probed
        # bucket sizes (an average would under-estimate on skewed data, where
        # queries gravitate to the largest clusters).  No query's answer
        # depends on its chunk: this is purely a peak-memory cap.
        pair_counts = self._arena.sizes[probes].sum(axis=1)
        ids_out: list[np.ndarray] = []
        dists_out: list[np.ndarray] = []
        n_candidates: list[int] = []
        n_exact: list[int] = []
        lo = 0
        while lo < n_queries:
            hi = lo + 1
            budget = _SEARCH_BATCH_MAX_PAIRS - int(pair_counts[lo])
            while hi < n_queries and int(pair_counts[hi]) <= budget:
                budget -= int(pair_counts[hi])
                hi += 1
            chunk_queries = query_mat[lo:hi]
            chunk_probes = probes[lo:hi]
            candidate_ids, estimate, offsets = self._estimate_rabitq_batch(
                chunk_queries, chunk_probes
            )
            reranked = self.reranker.rerank_batch(
                chunk_queries,
                candidate_ids,
                estimate,
                offsets,
                self._flat,
                k,
                metric=self._metric,
            )
            ids_out.extend(self._to_external_ids(ids) for ids, _, _ in reranked)
            dists_out.extend(dists for _, dists, _ in reranked)
            n_candidates.extend(np.diff(offsets).tolist())
            n_exact.extend(exact for _, _, exact in reranked)
            lo = hi
        return BatchSearchResult(
            ids=tuple(ids_out),
            distances=tuple(dists_out),
            n_candidates=np.asarray(n_candidates, dtype=np.int64),
            n_exact=np.asarray(n_exact, dtype=np.int64),
        )


__all__ = ["IVFQuantizedSearcher", "SearchResult", "BatchSearchResult"]
