"""The user-facing RaBitQ quantizer (Algorithms 1 and 2 of the paper).

:class:`RaBitQ` ties together the components of :mod:`repro.core`:

* **Index phase** (:meth:`RaBitQ.fit`): normalize the raw vectors relative to
  a centroid, pad them to the code length, inversely rotate them, encode
  each coordinate as a ``B``-bit level (the sign bit at ``B = 1``; one
  encoder, :func:`encode_rows`, for every width), and store the codes in
  the searcher's layout: a one-region :class:`repro.index.arena.CodeArena`
  (:attr:`RaBitQ.arena`, without a slot map) holding the packed
  bit-planes and the stored per-code constants of
  :func:`repro.core.estimator.stored_code_consts` — the residual norms
  ``||o_r - c||`` and the alignments ``<o_bar, o>``; every estimate derives
  the other terms from them (``arena.cluster_consts(0)`` is that view).
* **Query phase** (:meth:`RaBitQ.prepare_queries` then
  :meth:`RaBitQ.estimate_distances_batch`): prepare the raw queries with
  the searcher's pair preparation on the one centroid
  (:func:`repro.core.query.prepare_pairs`: normalize, inversely rotate and
  scalar-quantize them, with every per-query term the estimate reads),
  then estimate the squared distance to every stored vector together with
  confidence bounds, as an ``(n_queries, n_codes)`` matrix.
  :meth:`RaBitQ.prepare_query` and :meth:`RaBitQ.estimate_distances` are
  the same calls on one row — a prepared query is a one-row
  :class:`QuantizedQueryBatch` — so a batch returns bit-identical
  estimates to looping over its queries.

``RaBitQ(config, metric=)`` serves every metric of :mod:`repro.core.metric`
through the one estimator, via the centroid decomposition there.  Under
``"ip"`` / ``"cosine"`` the constants carry ``<o_r, c>`` and ``||o_r||``
per row, prepared queries carry ``<q_r, c> - ||c||^2`` (and ``||q_r||``
under cosine), and the ``distances`` field holds similarity scores (larger
is better).  An ``epsilon0=`` override of an estimate call re-forms the
``B > 1`` query-rounding term of a prepared query
(:func:`repro.core.query.query_rounding_term`) along with the codes'
half-widths, so a query prepared once serves a whole ``epsilon0`` sweep.

Estimation is the searcher's one estimate function on one centroid,
:func:`repro.core.estimator.estimate_codes`: the integer dot ``<x_b, q_u>``
(the plane-weighted popcount of Eq. 21-22, one plane for ``B = 1``), the
affine undo of the query quantization (Eq. 19-20), then
:func:`repro.core.estimator.fused_estimate`.  A one-cluster searcher with
the same centroid, rotation and rounding vector holds the same arena and
returns the same estimates bit for bit.  ``compute="float"`` replaces the
first two steps by the exact inner product with the unquantized rotated
query — the reference the unbiasedness tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core import bitops, codebook
from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    DistanceEstimate,
    estimate_codes,
    fused_estimate,
    n_consts_for,
    stored_code_consts,
)
from repro.core.metric import Metric, resolve_metric
from repro.core.normalization import compute_centroid, pad_vectors
from repro.core.query import (
    QuantizedQueryMatrix,
    prepare_pairs,
    query_rounding_term,
    rotate_rows,
    sample_rounding_offsets,
)
from repro.core.rotation import Rotation, make_rotation
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.substrates.linalg import as_float_matrix, as_int_ids, normalize_rows
from repro.substrates.rng import spawn_rngs

if TYPE_CHECKING:
    from repro.index.arena import CodeArena

#: Supported computation paths for ``<o_bar, q>``.
COMPUTE_MODES = ("float", "bitwise")


def encode_rows(
    raw: np.ndarray,
    centroids: np.ndarray,
    rotation: Rotation,
    code_length: int,
    bits: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Encode raw rows against their centroids with ``rotation`` (Algorithm 1).

    The one encoder for every code width ``bits``, shared by
    :meth:`RaBitQ.fit` and :class:`repro.index.searcher.IVFQuantizedSearcher`
    (``fit`` and ``insert``).
    ``centroids`` is one centroid for all rows or an ``(n, dim)`` matrix of
    per-row centroids, so rows of many IVF clusters encode in one pass.
    Rows are normalized, padded to ``code_length`` and inversely rotated
    (one GEMM; a one-row GEMV may round an ULP apart); each rotated
    coordinate then becomes a level ``u_j in [0, 2^bits - 1]``.

    * ``bits = 1`` is the paper's sign code (Sec. 3.1.3): ``u = x_b``, the
      0/1 sign pattern, and ``x_bar = (2u - 1)/sqrt(D)``.
    * ``bits > 1`` quantizes each coordinate uniformly over the row's range
      ``[-t, t]`` (``t = max_j |rotated_j|``); ``x_bar = v / ||v||`` with
      ``v = 2u - (2^bits - 1)``.  For ``bits = 1`` this map is the sign
      code, but that width keeps its literal sign arithmetic, bit for bit.

    Returns ``(levels, alignments, norms, rescales)``:

    * ``levels`` — the ``uint8`` level matrix ``u`` (0/1 at ``bits = 1``),
      packed by :func:`repro.core.bitops.pack_level_planes` for storage
      (their sums, Eq. 20's popcount term, are derived from the packed
      words when a query needs them);
    * ``alignments`` — ``<x_bar, P^-1 o>`` per row, computed exactly;
    * ``norms`` — residual norms ``||o_r - c||``;
    * ``rescales`` — ``1 / ||v||`` per row for ``bits > 1`` (every ``v_j``
      is odd, so ``||v|| >= sqrt(D) > 0``); ``None`` at ``bits = 1``, whose
      rescale ``1/sqrt(D)`` is a constant.
    """
    centres = np.asarray(centroids, dtype=np.float64)
    if centres.shape[-1] != raw.shape[1]:
        raise DimensionMismatchError(
            f"centroid has dimension {centres.shape[-1]}, data has {raw.shape[1]}"
        )
    units, norms = normalize_rows(raw - centres, return_norms=True)
    rotated = rotation.apply_inverse(pad_vectors(units, code_length))
    if bits == 1:
        levels = codebook.signed_to_bits(rotated)
        # <o_bar, o> = <P x_bar, o> = <x_bar, P^-1 o>; computed exactly here.
        signed = codebook.bits_to_signed(levels, code_length)
        alignments = np.einsum("ij,ij->i", signed, rotated)
        rescales = None
    else:
        n_levels = (1 << bits) - 1
        t = np.abs(rotated).max(axis=1)
        # Degenerate all-zero rows quantize every coordinate to the midpoint
        # level 2^(bits-1) (v = all-ones), whose alignment is exactly 0 —
        # the estimator's zero-alignment guard then treats them as
        # degenerate, as it does zero rows at bits = 1.
        safe_t = np.where(t > 0.0, t, 1.0)
        scaled = (rotated + safe_t[:, None]) / (2.0 * safe_t[:, None])
        levels = np.clip(
            np.floor(scaled * float(1 << bits)), 0, n_levels
        ).astype(np.uint8)
        v = 2.0 * levels.astype(np.float64) - float(n_levels)
        rescales = 1.0 / np.sqrt(np.einsum("ij,ij->i", v, v))
        alignments = np.einsum("ij,ij->i", v, rotated) * rescales
    return levels, alignments, norms, rescales


@dataclass(frozen=True)
class QuantizedQueryBatch:
    """A batch of queries prepared for batched distance estimation.

    Attributes
    ----------
    quantized:
        The scalar-quantized rotated queries with their per-query metadata.
    rotated:
        The (unquantized) rotated unit queries, shape
        ``(n_queries, code_length)``.
    terms:
        The per-query terms the estimate reads, each of shape
        ``(n_queries,)`` (:func:`repro.core.query.prepare_pairs`):
        ``query_norms`` (``||q_r - c||``) and the undo's ``delta`` /
        ``lower`` / ``sums`` always, ``query_rounding`` for ``B > 1``, and
        ``query_offset`` / ``query_raw_norm`` under ``"ip"`` / ``"cosine"``.
    """

    quantized: QuantizedQueryMatrix
    rotated: np.ndarray
    terms: dict[str, np.ndarray]

    def __len__(self) -> int:
        return int(self.rotated.shape[0])

    @property
    def code_length(self) -> int:
        """Code length the queries were prepared for."""
        return int(self.rotated.shape[1])


class RaBitQ:
    """RaBitQ quantizer: D-bit codes with an unbiased distance estimator.

    Parameters
    ----------
    config:
        A :class:`repro.core.config.RaBitQConfig`; ``None`` uses the paper's
        defaults (``epsilon_0 = 1.9``, ``B_q = 4``, code length = D rounded
        up to a multiple of 64, QR rotation).
    metric:
        ``"l2"`` (default: squared distances), ``"ip"`` (raw inner
        products) or ``"cosine"``, or a :class:`repro.core.metric.Metric`.
        Similarity metrics return scores, larger is better.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RaBitQ
    >>> rng = np.random.default_rng(7)
    >>> data = rng.standard_normal((500, 64))
    >>> quantizer = RaBitQ().fit(data)
    >>> query = rng.standard_normal(64)
    >>> estimate = quantizer.estimate_distances(query)
    >>> len(estimate.distances)
    500
    >>> mips = RaBitQ(metric="ip").fit(data)
    >>> top = np.argsort(-mips.estimate_distances(query).scores)[:10]
    """

    def __init__(
        self, config: Optional[RaBitQConfig] = None, metric: str | Metric = "l2"
    ) -> None:
        self.config = config if config is not None else RaBitQConfig()
        self._metric = resolve_metric(metric)
        self._rotation: Rotation | None = None
        # Eq. 18's uniforms: like the rotation, sampled at fit, then only read.
        self._rounding_offsets: np.ndarray | None = None
        self._arena: CodeArena | None = None
        self._centroid: np.ndarray | None = None
        self._rotation_rng = spawn_rngs(self.config.seed, 2)[0]

    # ------------------------------------------------------------------ #
    # Index phase (Algorithm 1)
    # ------------------------------------------------------------------ #

    @property
    def metric(self) -> str:
        """Name of the served metric (``"l2"``, ``"ip"`` or ``"cosine"``)."""
        return self._metric.name

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._arena is not None

    @property
    def arena(self) -> CodeArena:
        """The codes and stored constants :meth:`fit` produced, as a
        one-region :class:`repro.index.arena.CodeArena` without a slot map
        (row ``i`` is row ``i`` of the fitted data)."""
        if self._arena is None:
            raise NotFittedError("RaBitQ must be fitted before use")
        return self._arena

    @property
    def centroid(self) -> np.ndarray:
        """The normalization centroid ``c`` (available after :meth:`fit`)."""
        if self._centroid is None:
            raise NotFittedError("RaBitQ must be fitted before use")
        return self._centroid

    @property
    def rotation(self) -> Rotation:
        """The sampled rotation ``P`` (available after :meth:`fit`)."""
        if self._rotation is None:
            raise NotFittedError("RaBitQ must be fitted before use")
        return self._rotation

    @property
    def code_length(self) -> int:
        """Code length in bits (available after :meth:`fit`)."""
        return self.arena.code_length

    @property
    def dim(self) -> int:
        """Original data dimensionality (available after :meth:`fit`)."""
        return int(self.centroid.shape[0])

    def fit(
        self,
        data: np.ndarray,
        *,
        centroid: np.ndarray | None = None,
        rotation: Rotation | None = None,
    ) -> "RaBitQ":
        """Encode ``data`` (Algorithm 1) and return ``self``.

        The codes and constants are built as the searcher builds a
        cluster's: :func:`encode_rows`, the packed level planes, then
        :func:`repro.core.estimator.stored_code_consts` (with ``<o_r, c>``,
        ``||o_r||`` under similarity metrics); the arena keeps the config's
        ``epsilon0`` for the constants it derives.

        Parameters
        ----------
        data:
            Raw data vectors, shape ``(n_vectors, dim)``.
        centroid:
            Normalization centroid; defaults to the mean of ``data``.  When
            RaBitQ is used inside an IVF index each cluster passes its own
            centroid here.
        rotation:
            Pre-built rotation to reuse (e.g. shared across IVF clusters so
            that the query needs to be rotated only once).  When omitted a
            fresh rotation is sampled according to the config.
        """
        # The index package imports this module, so the arena is imported
        # where it is first needed.
        from repro.index.arena import CodeArena

        raw = as_float_matrix(data, "data")
        if raw.shape[0] == 0:
            raise EmptyDatasetError("cannot fit RaBitQ on an empty dataset")
        code_length = self.config.resolve_code_length(raw.shape[1])

        if rotation is not None:
            if rotation.dim != code_length:
                raise DimensionMismatchError(
                    f"provided rotation has dim {rotation.dim}, "
                    f"expected code length {code_length}"
                )
            self._rotation = rotation
        else:
            self._rotation = make_rotation(
                self.config.rotation, code_length, self._rotation_rng
            )
        self._rounding_offsets = sample_rounding_offsets(
            self.config.seed, code_length
        )

        if centroid is None:
            centroid = compute_centroid(raw)
        centre = np.asarray(centroid, dtype=np.float64).reshape(-1)
        bits = int(self.config.bits)
        levels, alignments, norms, rescales = encode_rows(
            raw, centre, self._rotation, code_length, bits
        )
        raw_terms = {}
        if self._metric.higher_is_better:
            raw_terms = {
                "dot_centroid": raw @ centre,
                "raw_norms": np.sqrt(np.einsum("ij,ij->i", raw, raw)),
            }
        consts = stored_code_consts(
            alignments, norms, metric=self._metric, rescales=rescales, **raw_terms
        )
        self._arena = CodeArena.from_sections(
            code_length,
            n_consts_for(self._metric, bits),
            codes=bitops.pack_level_planes(levels, bits),
            consts=consts,
            slots=None,
            sizes=np.array([raw.shape[0]]),
            bits=bits,
            epsilon0=self.config.epsilon0,
        )
        self._centroid = centre
        return self

    # ------------------------------------------------------------------ #
    # Query phase (Algorithm 2)
    # ------------------------------------------------------------------ #

    def prepare_query(self, query: np.ndarray) -> QuantizedQueryBatch:
        """Normalize, rotate and quantize a raw query vector (Alg. 2, lines 1-2).

        :meth:`prepare_queries` on one row: the result is a one-row
        :class:`QuantizedQueryBatch`, reusable across all stored vectors and
        every :meth:`estimate_distances` call.
        """
        return self.prepare_queries(np.asarray(query, dtype=np.float64).reshape(1, -1))

    def prepare_queries(self, queries: np.ndarray) -> QuantizedQueryBatch:
        """Normalize, rotate and quantize a matrix of raw queries at once.

        One call prepares every row of ``queries`` for
        :meth:`estimate_distances_batch`: the searcher's pair preparation
        (:func:`repro.core.query.prepare_pairs`) on the one centroid, so
        each row's result depends on that row alone, scalar for scalar as
        the searcher prepares it.  No bit-planes are packed
        (``quantized.bitplanes`` is ``None``): the integer-dot kernel packs
        its own when it takes the popcount path.
        """
        mat = as_float_matrix(queries, "queries")
        if mat.shape[0] and mat.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"queries have dimension {mat.shape[1]}, index expects {self.dim}"
            )
        centroid = self.centroid[None]
        quantized, rotated, terms = prepare_pairs(
            mat,
            np.arange(mat.shape[0]),
            np.zeros(mat.shape[0], dtype=np.intp),
            rotation=self.rotation,
            centroids=centroid,
            rotated_centroids=rotate_rows(self.rotation, centroid),
            # ||c||^2 as the IVF layer computes it: an einsum over centroid
            # rows (a BLAS dot can round differently).
            centroid_sq_norms=np.einsum("ij,ij->i", centroid, centroid),
            rounding_offsets=self._rounding_offsets,
            config=self.config,
            metric=self._metric,
        )
        return QuantizedQueryBatch(quantized=quantized, rotated=rotated, terms=terms)

    def estimate_distances(
        self,
        query: np.ndarray | QuantizedQueryBatch,
        *,
        subset: np.ndarray | None = None,
        compute: str = "bitwise",
        epsilon0: float | None = None,
    ) -> DistanceEstimate:
        """Estimate squared distances from a raw query to the stored vectors.

        :meth:`estimate_distances_batch` on one row.

        Parameters
        ----------
        query:
            Either a raw query vector or the one-row
            :class:`QuantizedQueryBatch` of :meth:`prepare_query` (so the
            preparation cost can be shared).
        subset:
            Optional array of data-vector indices to estimate.
        compute:
            ``"bitwise"`` (default) or ``"float"`` (see
            :meth:`estimate_distances_batch`).
        epsilon0:
            Override of the confidence parameter (used by the Fig. 5 sweep).

        Returns
        -------
        DistanceEstimate
            Unbiased squared-distance estimates with confidence bounds
            (similarity scores and their bounds under ``"ip"`` /
            ``"cosine"``).
        """
        if isinstance(query, QuantizedQueryBatch):
            if len(query) != 1:
                raise InvalidParameterError(
                    "estimate_distances takes one prepared query; use "
                    "estimate_distances_batch for a batch"
                )
        else:
            query = self.prepare_query(query)
        batch = self.estimate_distances_batch(
            query, subset=subset, compute=compute, epsilon0=epsilon0
        )
        return DistanceEstimate(
            distances=batch.distances[0],
            lower_bounds=batch.lower_bounds[0],
            upper_bounds=batch.upper_bounds[0],
            inner_products=batch.inner_products[0],
        )

    def estimate_distances_batch(
        self,
        queries: np.ndarray | QuantizedQueryBatch,
        *,
        subset: np.ndarray | None = None,
        compute: str = "bitwise",
        epsilon0: float | None = None,
    ) -> DistanceEstimate:
        """Estimate squared distances for a whole batch of queries at once.

        Parameters
        ----------
        queries:
            A raw query matrix of shape ``(n_queries, dim)`` or an
            already-prepared :class:`QuantizedQueryBatch`.
        subset / epsilon0:
            As in :meth:`estimate_distances`.
        compute:
            ``"bitwise"`` (the integer dot of the quantized query, default)
            or ``"float"`` (the unquantized rotated query, reference path).

        Returns
        -------
        DistanceEstimate
            All fields have shape ``(n_queries, n_codes)``; row ``i``
            depends on query ``i`` alone.
        """
        prepared = (
            queries
            if isinstance(queries, QuantizedQueryBatch)
            else self.prepare_queries(queries)
        )
        return self._estimate(prepared, self._rows(subset), compute, epsilon0)

    def _rows(self, indices) -> slice | np.ndarray:
        """Row selector for ``indices`` (``None`` selects every row).

        Only integer indices in ``[0, n)`` select rows; a float (which
        would truncate), a negative (which would wrap) or an out-of-range
        index raises :class:`InvalidParameterError`.
        """
        if indices is None:
            return slice(None)
        rows = as_int_ids(indices, "row indices")
        n_rows = self.arena.n_rows
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise InvalidParameterError(
                f"row indices must lie in [0, {n_rows}), got "
                f"[{rows.min()}, {rows.max()}]"
            )
        return rows

    def _estimate(
        self,
        prepared: QuantizedQueryBatch,
        rows,
        compute: str,
        epsilon0: float | None,
    ) -> DistanceEstimate:
        """Estimates of the selected codes for every prepared query.

        The ``"bitwise"`` path is :func:`estimate_codes` in cross form, the
        searcher's own estimate with ``(n_queries, 1)`` query terms, for
        every metric, on the constants' view of the selected codes
        (:meth:`CodeArena.consts_view`); an ``epsilon0`` override reaches
        both that view's half-widths and the queries' rounding term.
        """
        if compute not in COMPUTE_MODES:
            raise InvalidParameterError(
                f"compute must be one of {COMPUTE_MODES}, got {compute!r}"
            )
        arena = self.arena
        eps = self.config.epsilon0 if epsilon0 is None else float(epsilon0)
        codes = arena.codes[rows]
        consts = arena.consts_view(rows, codes, epsilon0=eps)
        terms = {name: term[:, None] for name, term in prepared.terms.items()}
        if epsilon0 is not None and "query_rounding" in terms:
            terms["query_rounding"] = query_rounding_term(
                prepared.quantized.delta, eps
            )[:, None]
        if compute == "float":
            # One GEMV per query, as a one-query call would run it (a single
            # GEMM would round differently).
            decoded = self._decoded(rows)
            quantized_dot = np.empty((len(prepared), decoded.shape[0]))
            for i in range(len(prepared)):
                quantized_dot[i] = decoded @ prepared.rotated[i]
            for name in ("delta", "lower", "sums"):
                del terms[name]
            return fused_estimate(quantized_dot, consts, metric=self._metric, **terms)
        return estimate_codes(
            codes,
            consts,
            prepared.quantized.codes,
            terms,
            code_length=arena.code_length,
            bits=arena.bits,
            metric=self._metric,
        )

    def _decoded(self, rows) -> np.ndarray:
        """The reconstructed unit codes ``x_bar`` (rotated frame) of ``rows``."""
        arena = self.arena
        packed = arena.codes[rows]
        if arena.bits == 1:
            return codebook.decode_codes(packed, arena.code_length)
        levels = bitops.unpack_level_planes(packed, arena.code_length, arena.bits)
        v = 2.0 * levels.astype(np.float64) - float((1 << arena.bits) - 1)
        return v * arena.consts[-1, rows][:, None]

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #

    def reconstruct(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Return the quantized unit vectors ``ō`` (rotated back to data space).

        Mainly useful for tests and for the concentration experiments; the
        reconstruction lives in the padded ``code_length``-dimensional space.
        """
        return self.rotation.apply(self._decoded(self._rows(indices)))

    def code_bits(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Return codes as unpacked per-dimension integers.

        0/1 for the binary construction; level values in ``[0, 2^B - 1]``
        for multi-bit codes.
        """
        arena = self.arena
        packed = arena.codes[self._rows(indices)]
        return bitops.unpack_level_planes(packed, arena.code_length, arena.bits)

    def compression_ratio(self) -> float:
        """Raw-vector bytes divided by quantization-code bytes."""
        arena = self.arena
        return 32 * self.dim / (arena.code_length * arena.bits)


__all__ = [
    "RaBitQ",
    "encode_rows",
    "QuantizedQueryBatch",
    "COMPUTE_MODES",
]
