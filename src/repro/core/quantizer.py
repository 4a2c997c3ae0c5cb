"""The user-facing RaBitQ quantizer (Algorithms 1 and 2 of the paper).

:class:`RaBitQ` ties together the components of :mod:`repro.core`:

* **Index phase** (:meth:`RaBitQ.fit`): normalize the raw vectors relative to
  a centroid, pad them to the code length, inversely rotate them, store the
  sign patterns as packed bit strings, and pre-compute the residual norms
  ``||o_r - c||`` and the alignments ``<o_bar, o>``.
* **Query phase** (:meth:`RaBitQ.prepare_query` then
  :meth:`RaBitQ.estimate_distances`): normalize and inversely rotate the raw
  query, scalar-quantize it, and estimate the squared distance to every
  stored vector together with confidence bounds.
* **Batch query phase** (:meth:`RaBitQ.prepare_queries` then
  :meth:`RaBitQ.estimate_distances_batch`): the same pipeline for a whole
  query *matrix* at once — one preparation pass per batch and a vectorized
  multi-query popcount kernel producing an ``(n_queries, n_codes)`` estimate
  matrix.  The batch path returns bit-identical estimates to looping the
  single-query path, so callers can batch freely without changing results.
* **Mutation** (:meth:`RaBitQ.add` and :meth:`RaBitQ.keep_rows`): new rows
  can be encoded incrementally against the fitted centroid/rotation and
  appended, and stored rows can be dropped (tombstone compaction).  Both
  operations leave the estimates of the untouched rows bit-identical, which
  is what the mutable index lifecycle of
  :class:`repro.index.searcher.IVFQuantizedSearcher` builds on.

Three execution paths for ``<x_b, q_u>`` are provided and give identical
results up to the documented quantization error:

* ``"float"``     — exact float inner products with the reconstructed
  bi-valued vectors (reference path, used in tests),
* ``"bitwise"``   — bit-plane AND + popcount (the paper's single-code path),
* ``"lut"``       — 4-bit look-up-table accumulation (the paper's batch /
  fast-scan path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import bitops, codebook, lut
from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    DistanceEstimate,
    estimate_distances,
    estimate_distances_batch,
    undo_query_quantization_multibit,
)
from repro.core.normalization import (
    compute_centroid,
    normalize_queries,
    normalize_query,
    normalize_to_centroid,
    pad_vectors,
)
from repro.core.query import (
    QuantizedQueryMatrix,
    QuantizedQueryVector,
    quantize_query_matrix,
    quantize_query_vector,
    sample_rounding_offsets,
)
from repro.core.rotation import Rotation, make_rotation
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.substrates.linalg import as_float_matrix
from repro.substrates.rng import spawn_rngs

#: Supported computation paths for the quantized inner product.
COMPUTE_MODES = ("float", "bitwise", "lut")


def encode_rows(
    raw: np.ndarray,
    centroid: np.ndarray,
    rotation: Rotation,
    code_length: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode raw rows against ``centroid`` with ``rotation`` (Algorithm 1).

    The stateless core of the index phase, shared by :meth:`RaBitQ.fit`,
    the incremental :meth:`RaBitQ.add` path and the arena-backed
    :class:`repro.index.searcher.IVFQuantizedSearcher` (which stores codes
    in a contiguous arena instead of per-cluster quantizer objects).

    Returns ``(packed_codes, bits, code_popcounts, alignments, norms)`` —
    ``bits`` is the unpacked 0/1 ``uint8`` code matrix the packed codes were
    built from (the arena keeps it as the operand of its integer-exact GEMM
    kernel).
    """
    normalized = normalize_to_centroid(raw, centroid)
    padded_units = pad_vectors(normalized.unit_vectors, code_length)

    # Inversely rotate the unit vectors and store their sign patterns.
    rotated = rotation.apply_inverse(padded_units)
    bits = codebook.signed_to_bits(rotated)
    packed = bitops.pack_bits(bits)
    popcounts = codebook.code_popcounts(bits)

    # <o_bar, o> = <P x_bar, o> = <x_bar, P^-1 o>; computed exactly here.
    signed = codebook.bits_to_signed(bits, code_length)
    alignments = np.einsum("ij,ij->i", signed, rotated)
    return packed, bits, popcounts, alignments, normalized.norms


def encode_rows_multibit(
    raw: np.ndarray,
    centroid: np.ndarray,
    rotation: Rotation,
    code_length: int,
    bits: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode raw rows with ``bits`` (> 1) levels per dimension.

    The multi-bit (extended RaBitQ) construction layers scalar-quantized
    magnitudes over the sign bits: each rotated coordinate is uniformly
    quantized to a level ``u_j in [0, 2^bits - 1]`` over the row's value
    range ``[-t, t]`` (``t = max_j |rotated_j|``), the code vector is
    ``v = 2u - (2^bits - 1) * 1`` and the reconstructed unit vector is
    ``x_bar = v / ||v||``.  For ``bits = 1`` this degenerates to the sign
    construction of :func:`encode_rows` (``v in {-1, +1}^D``,
    ``||v|| = sqrt(D)``), but the 1-bit path keeps its own literal
    arithmetic for bit-identity — this encoder is only used for B > 1.

    Returns ``(packed_planes, levels, level_sums, alignments, norms,
    rescales)``:

    * ``packed_planes`` — plane-major packed planes of ``u``
      (:func:`repro.core.bitops.pack_level_planes`), shape
      ``(n, bits * n_words)``;
    * ``levels`` — the unpacked ``uint8`` level matrix (the arena keeps it
      as its integer-exact GEMM operand);
    * ``level_sums`` — ``sum_j u_j`` per row (``int64``; the multi-bit
      analogue of the popcount term of Eq. 20);
    * ``alignments`` — ``<x_bar, P^-1 o>`` per row, computed exactly;
    * ``norms`` — residual norms ``||o_r - c||``;
    * ``rescales`` — ``1 / ||v||`` per row (every ``v_j`` is odd, so
      ``||v|| >= sqrt(D) > 0`` always).
    """
    if bits <= 1:
        raise InvalidParameterError(
            "encode_rows_multibit requires bits > 1; use encode_rows for "
            "the binary construction"
        )
    normalized = normalize_to_centroid(raw, centroid)
    padded_units = pad_vectors(normalized.unit_vectors, code_length)
    rotated = rotation.apply_inverse(padded_units)

    n_levels = (1 << bits) - 1
    t = np.abs(rotated).max(axis=1)
    # Degenerate all-zero rows quantize every coordinate to the midpoint
    # level 2^(bits-1) (v = all-ones), whose alignment is exactly 0 — the
    # estimator's zero-alignment guard then treats them as degenerate,
    # matching the 1-bit path's behaviour for zero rows.
    safe_t = np.where(t > 0.0, t, 1.0)
    scaled = (rotated + safe_t[:, None]) / (2.0 * safe_t[:, None])
    levels = np.clip(
        np.floor(scaled * float(1 << bits)), 0, n_levels
    ).astype(np.uint8)

    v = 2.0 * levels.astype(np.float64) - float(n_levels)
    v_norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    rescales = 1.0 / v_norms
    alignments = np.einsum("ij,ij->i", v, rotated) * rescales
    level_sums = levels.astype(np.int64).sum(axis=1)
    packed = bitops.pack_level_planes(levels, bits)
    return packed, levels, level_sums, alignments, normalized.norms, rescales


@dataclass(frozen=True)
class QuantizedDataset:
    """Everything RaBitQ stores about an encoded set of vectors.

    Attributes
    ----------
    packed_codes:
        Packed ``uint64`` code words, shape ``(n_vectors, bits * n_words)``.
        For ``bits = 1`` these are the historical packed sign bit strings;
        for ``bits > 1`` they are plane-major level bit-planes
        (:func:`repro.core.bitops.pack_level_planes`).
    code_popcounts:
        ``sum_j u_j`` per code — the popcount of the sign bits for
        ``bits = 1`` (Eq. 20) and the level sum for ``bits > 1``.
    alignments:
        Pre-computed ``<o_bar, o>`` per vector.
    norms:
        Residual norms ``||o_r - c||`` per vector.
    centroid:
        Normalization centroid ``c``.
    code_length:
        Number of quantized dimensions per code (including padding).
    dim:
        Original data dimensionality (before padding).
    bits:
        Bits per dimension ``B`` (1 for the paper's binary construction).
    rescales:
        Per-code rescale factors ``1 / ||v||`` (``bits > 1`` only; ``None``
        for binary codes, whose rescale ``1/sqrt(D)`` is a constant).
    """

    packed_codes: np.ndarray
    code_popcounts: np.ndarray
    alignments: np.ndarray
    norms: np.ndarray
    centroid: np.ndarray
    code_length: int
    dim: int
    bits: int = 1
    rescales: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.packed_codes.shape[0])

    @property
    def n_words(self) -> int:
        """Number of 64-bit words per code (all ``bits`` planes included)."""
        return int(self.packed_codes.shape[1])

    def code_bytes_per_vector(self) -> float:
        """Bytes of packed code per stored vector (``bits * code_length / 8``)."""
        return self.bits * self.code_length / 8.0

    def memory_bytes(self) -> int:
        """Approximate index memory footprint in bytes (codes + per-vector floats)."""
        code_bytes = self.packed_codes.nbytes
        float_bytes = self.alignments.nbytes + self.norms.nbytes
        popcount_bytes = self.code_popcounts.nbytes
        rescale_bytes = 0 if self.rescales is None else self.rescales.nbytes
        return int(code_bytes + float_bytes + popcount_bytes + rescale_bytes)


@dataclass(frozen=True)
class QuantizedQuery:
    """A query prepared for distance estimation against a fitted RaBitQ index.

    Attributes
    ----------
    quantized:
        The scalar-quantized rotated query ``q̄_u`` with its metadata.
    rotated:
        The (unquantized) rotated unit query ``q' = P^-1 q``.
    query_norm:
        ``||q_r - c||`` — the distance from the raw query to the centroid.
    luts / luts_uint8:
        Pre-built 4-bit look-up tables for the batch path (``luts_uint8``
        additionally 8-bit quantized as the fast-scan layout does).
    """

    quantized: QuantizedQueryVector
    rotated: np.ndarray
    query_norm: float
    luts: np.ndarray
    luts_uint8: np.ndarray
    lut_scale: float
    lut_offset: float

    @property
    def code_length(self) -> int:
        """Code length the query was prepared for."""
        return int(self.rotated.shape[0])


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
    query_norms:
        ``||q_r - c||`` per query, shape ``(n_queries,)``.
    """

    quantized: QuantizedQueryMatrix
    rotated: np.ndarray
    query_norms: np.ndarray

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
    """

    def __init__(self, config: Optional[RaBitQConfig] = None) -> None:
        self.config = config if config is not None else RaBitQConfig()
        self._rotation: Rotation | None = None
        # Eq. 18's uniforms: like the rotation, sampled at fit, then only read.
        self._rounding_offsets: np.ndarray | None = None
        self._dataset: QuantizedDataset | None = None
        self._rotation_rng = spawn_rngs(self.config.seed, 2)[0]

    # ------------------------------------------------------------------ #
    # Index phase (Algorithm 1)
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._dataset is not None

    @property
    def dataset(self) -> QuantizedDataset:
        """The encoded dataset produced by :meth:`fit`."""
        if self._dataset is None:
            raise NotFittedError("RaBitQ must be fitted before use")
        return self._dataset

    @property
    def rotation(self) -> Rotation:
        """The sampled rotation ``P`` (available after :meth:`fit`)."""
        if self._rotation is None:
            raise NotFittedError("RaBitQ must be fitted before use")
        return self._rotation

    @property
    def code_length(self) -> int:
        """Code length in bits (available after :meth:`fit`)."""
        return self.dataset.code_length

    @property
    def dim(self) -> int:
        """Original data dimensionality (available after :meth:`fit`)."""
        return self.dataset.dim

    def fit(
        self,
        data: np.ndarray,
        *,
        centroid: np.ndarray | None = None,
        rotation: Rotation | None = None,
    ) -> "RaBitQ":
        """Encode ``data`` (Algorithm 1) and return ``self``.

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
        raw = as_float_matrix(data, "data")
        if raw.shape[0] == 0:
            raise EmptyDatasetError("cannot fit RaBitQ on an empty dataset")
        dim = raw.shape[1]
        code_length = self.config.resolve_code_length(dim)

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
        packed, popcounts, alignments, norms, centre, rescales = (
            self._encode_rows(raw, centroid, code_length)
        )
        self._dataset = QuantizedDataset(
            packed_codes=packed,
            code_popcounts=popcounts,
            alignments=alignments,
            norms=norms,
            centroid=centre,
            code_length=code_length,
            dim=dim,
            bits=int(self.config.bits),
            rescales=rescales,
        )
        return self

    def _encode_rows(
        self, raw: np.ndarray, centroid: np.ndarray, code_length: int
    ) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
        np.ndarray | None,
    ]:
        """Encode raw rows against ``centroid`` with the current rotation.

        Returns ``(packed_codes, code_popcounts, alignments, norms,
        centroid, rescales)`` — the per-row fields of
        :class:`QuantizedDataset` (``rescales`` is ``None`` for binary
        codes).  Used both by :meth:`fit` and by the incremental
        :meth:`add` path, so newly inserted rows go through exactly the
        fit-time encoding pipeline.
        """
        assert self._rotation is not None
        centre = np.asarray(centroid, dtype=np.float64).reshape(-1)
        if self.config.bits > 1:
            packed, _, level_sums, alignments, norms, rescales = (
                encode_rows_multibit(
                    raw, centre, self._rotation, code_length, self.config.bits
                )
            )
            return packed, level_sums, alignments, norms, centre, rescales
        packed, _, popcounts, alignments, norms = encode_rows(
            raw, centre, self._rotation, code_length
        )
        return packed, popcounts, alignments, norms, centre, None

    def add(self, data: np.ndarray) -> "RaBitQ":
        """Incrementally encode new rows against the fitted centroid/rotation.

        The new rows are appended to the stored dataset: they are normalized
        to the *existing* centroid, inversely rotated with the *existing*
        rotation and packed exactly like fit-time rows, so distance estimates
        for previously stored vectors are completely unaffected.  Used by the
        mutable index lifecycle (``IVFQuantizedSearcher.insert``).
        """
        dataset = self.dataset
        raw = as_float_matrix(data, "data")
        if raw.shape[0] == 0:
            return self
        if raw.shape[1] != dataset.dim:
            raise DimensionMismatchError(
                f"new rows have dimension {raw.shape[1]}, index expects "
                f"{dataset.dim}"
            )
        packed, popcounts, alignments, norms, _, rescales = self._encode_rows(
            raw, dataset.centroid, dataset.code_length
        )
        self._dataset = QuantizedDataset(
            packed_codes=np.concatenate([dataset.packed_codes, packed]),
            code_popcounts=np.concatenate([dataset.code_popcounts, popcounts]),
            alignments=np.concatenate([dataset.alignments, alignments]),
            norms=np.concatenate([dataset.norms, norms]),
            centroid=dataset.centroid,
            code_length=dataset.code_length,
            dim=dataset.dim,
            bits=dataset.bits,
            rescales=(
                None
                if dataset.rescales is None
                else np.concatenate([dataset.rescales, rescales])
            ),
        )
        return self

    def keep_rows(self, keep: np.ndarray) -> "RaBitQ":
        """Drop all stored rows where ``keep`` is ``False`` (order-preserving).

        ``keep`` is a boolean mask over the stored rows.  Row-local metadata
        (codes, popcounts, alignments, norms) is sliced, so estimates for the
        surviving rows are bit-identical to the pre-compaction values.  Used
        by tombstone compaction (``IVFQuantizedSearcher.compact``).
        """
        dataset = self.dataset
        mask = np.asarray(keep, dtype=bool).reshape(-1)
        if mask.shape[0] != len(dataset):
            raise DimensionMismatchError(
                f"keep mask has length {mask.shape[0]}, dataset has "
                f"{len(dataset)} rows"
            )
        if mask.all():
            return self
        self._dataset = QuantizedDataset(
            packed_codes=dataset.packed_codes[mask],
            code_popcounts=dataset.code_popcounts[mask],
            alignments=dataset.alignments[mask],
            norms=dataset.norms[mask],
            centroid=dataset.centroid,
            code_length=dataset.code_length,
            dim=dataset.dim,
            bits=dataset.bits,
            rescales=(
                None if dataset.rescales is None else dataset.rescales[mask]
            ),
        )
        return self

    # ------------------------------------------------------------------ #
    # Query phase (Algorithm 2)
    # ------------------------------------------------------------------ #

    def prepare_query(self, query: np.ndarray) -> QuantizedQuery:
        """Normalize, rotate and quantize a raw query vector (Alg. 2, lines 1-2).

        The returned object is reusable across all data vectors (and, inside
        an IVF index, across all probed clusters that share the rotation and
        centroid).
        """
        dataset = self.dataset
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        if vec.shape[0] != dataset.dim:
            raise DimensionMismatchError(
                f"query has dimension {vec.shape[0]}, index expects {dataset.dim}"
            )
        unit_query, query_norm = normalize_query(vec, dataset.centroid)
        padded = pad_vectors(unit_query.reshape(1, -1), dataset.code_length)
        rotated = self.rotation.apply_inverse(padded).reshape(-1)
        quantized = quantize_query_vector(
            rotated,
            self.config.query_bits,
            randomized=self.config.randomized_rounding,
            offsets=self._rounding_offsets,
        )
        luts = lut.build_query_luts(quantized.codes)
        luts_uint8, scale, offset = lut.quantize_luts_to_uint8(luts)
        return QuantizedQuery(
            quantized=quantized,
            rotated=rotated,
            query_norm=query_norm,
            luts=luts,
            luts_uint8=luts_uint8,
            lut_scale=scale,
            lut_offset=offset,
        )

    def prepare_queries(self, queries: np.ndarray) -> QuantizedQueryBatch:
        """Normalize, rotate and quantize a matrix of raw queries at once.

        The batched twin of :meth:`prepare_query`: one call prepares every
        row of ``queries`` for :meth:`estimate_distances_batch`.  The result
        is bit-identical to preparing the rows one by one — normalization
        and rotation are applied per row (BLAS reduces 1-D and 2-D operands
        in different orders, which would break the exact batch ≡ sequential
        guarantee), while the scalar quantization and bit-plane packing are
        fully vectorized.
        """
        dataset = self.dataset
        mat = as_float_matrix(queries, "queries")
        if mat.shape[0] and mat.shape[1] != dataset.dim:
            raise DimensionMismatchError(
                f"queries have dimension {mat.shape[1]}, index expects {dataset.dim}"
            )
        n_queries = mat.shape[0]
        dim = dataset.dim
        code_length = dataset.code_length
        rotation = self.rotation
        units, norms = normalize_queries(mat, dataset.centroid)
        rotated = np.empty((n_queries, code_length), dtype=np.float64)
        # The padding buffer is reused across rows (zeros beyond ``dim``
        # invariant) and the rotation is applied one row at a time.
        padded = np.zeros((1, code_length), dtype=np.float64)
        for i in range(n_queries):
            padded[0, :dim] = units[i]
            rotated[i] = rotation.apply_inverse(padded)[0]
        quantized = quantize_query_matrix(
            rotated,
            self.config.query_bits,
            randomized=self.config.randomized_rounding,
            offsets=self._rounding_offsets,
        )
        return QuantizedQueryBatch(
            quantized=quantized, rotated=rotated, query_norms=norms
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
            ``"bitwise"`` (the vectorized multi-query popcount kernel,
            default) or ``"float"`` (exact reference path).  The LUT path is
            single-query only.

        Returns
        -------
        DistanceEstimate
            All fields have shape ``(n_queries, n_codes)``.  Row ``i``
            equals the per-query ``estimate_distances`` output exactly
            (same integers from the popcount kernel, same elementwise float
            arithmetic).
        """
        if compute not in ("bitwise", "float"):
            raise InvalidParameterError(
                f"compute must be 'bitwise' or 'float' for batches, got {compute!r}"
            )
        prepared = (
            queries
            if isinstance(queries, QuantizedQueryBatch)
            else self.prepare_queries(queries)
        )
        dataset = self.dataset
        packed, popcounts, alignments, norms, rescales = (
            self._select_dataset_rows(subset)
        )
        code_length = dataset.code_length
        quantized = prepared.quantized

        if dataset.bits > 1:
            assert rescales is not None
            if compute == "float":
                levels = bitops.unpack_level_planes(
                    packed, code_length, dataset.bits
                )
                v = 2.0 * levels.astype(np.float64) - float(
                    (1 << dataset.bits) - 1
                )
                signed = v * rescales[:, None]
                quantized_dot = np.empty(
                    (len(prepared), packed.shape[0]), dtype=np.float64
                )
                for i in range(len(prepared)):
                    quantized_dot[i] = signed @ prepared.rotated[i]
            else:
                n_words = packed.shape[1] // dataset.bits
                integer_dot = np.zeros(
                    (len(prepared), packed.shape[0]), dtype=np.int64
                )
                for p in range(dataset.bits):
                    plane = packed[:, p * n_words : (p + 1) * n_words]
                    integer_dot += (
                        bitops.binary_dot_uint_batch(
                            plane,
                            quantized.bitplanes,
                            query_values=quantized.codes,
                        )
                        << p
                    )
                # Same elementwise op order as the sequential multi-bit
                # undo, broadcast per query — bit-identical rows.
                quantized_dot = undo_query_quantization_multibit(
                    integer_dot,
                    popcounts.astype(np.float64)[None, :],
                    rescales[None, :],
                    quantized.delta[:, None],
                    quantized.lower[:, None],
                    quantized.sum_codes.astype(np.float64)[:, None],
                    code_length,
                    dataset.bits,
                )
        elif compute == "float":
            # Reference path; per-query GEMV keeps rows bit-identical to
            # the scalar path (a single GEMM would not).
            signed = codebook.decode_codes(packed, code_length)
            quantized_dot = np.empty(
                (len(prepared), packed.shape[0]), dtype=np.float64
            )
            for i in range(len(prepared)):
                quantized_dot[i] = signed @ prepared.rotated[i]
        else:
            integer_dot = bitops.binary_dot_uint_batch(
                packed, quantized.bitplanes, query_values=quantized.codes
            )
            # Per-query affine undo of the scalar quantization (Eq. 19-20);
            # identical elementwise arithmetic to the single-query path.
            sqrt_d = np.sqrt(float(code_length))
            scale = 2.0 * quantized.delta / sqrt_d
            pop_scale = 2.0 * quantized.lower / sqrt_d
            sum_term = quantized.delta / sqrt_d * quantized.sum_codes.astype(
                np.float64
            )
            quantized_dot = (
                scale[:, None] * integer_dot.astype(np.float64)
                + pop_scale[:, None] * popcounts.astype(np.float64)[None, :]
                - sum_term[:, None]
                - (sqrt_d * quantized.lower)[:, None]
            )
        eps = self.config.epsilon0 if epsilon0 is None else float(epsilon0)
        return estimate_distances_batch(
            quantized_dot,
            alignments,
            norms,
            prepared.query_norms,
            code_length,
            eps,
            query_rounding=(
                (0.5 * eps * quantized.delta)[:, None]
                if dataset.bits > 1
                else None
            ),
        )

    def _select_dataset_rows(
        self, subset: np.ndarray | None
    ) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None
    ]:
        """``(packed_codes, code_popcounts, alignments, norms, rescales)``
        for ``subset`` (``rescales`` is ``None`` for binary codes)."""
        dataset = self.dataset
        if subset is None:
            return (
                dataset.packed_codes,
                dataset.code_popcounts,
                dataset.alignments,
                dataset.norms,
                dataset.rescales,
            )
        idx = np.asarray(subset, dtype=np.intp)
        return (
            dataset.packed_codes[idx],
            dataset.code_popcounts[idx],
            dataset.alignments[idx],
            dataset.norms[idx],
            None if dataset.rescales is None else dataset.rescales[idx],
        )

    def _quantized_inner_products(
        self,
        prepared: QuantizedQuery,
        subset: np.ndarray | None,
        compute: str,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(<o_bar, q>, alignments, norms)`` for the selected vectors."""
        dataset = self.dataset
        packed, popcounts, alignments, norms, rescales = (
            self._select_dataset_rows(subset)
        )
        code_length = dataset.code_length
        quantized = prepared.quantized

        if dataset.bits > 1:
            assert rescales is not None
            if compute == "lut":
                raise InvalidParameterError(
                    "compute='lut' supports only 1-bit codes; multi-bit "
                    "codes use 'bitwise' (weighted plane popcounts) or "
                    "'float'"
                )
            if compute == "float":
                levels = bitops.unpack_level_planes(
                    packed, code_length, dataset.bits
                )
                v = 2.0 * levels.astype(np.float64) - float(
                    (1 << dataset.bits) - 1
                )
                signed = v * rescales[:, None]
                return signed @ prepared.rotated, alignments, norms
            integer_dot = bitops.multibit_dot_uint(
                packed, quantized.bitplanes, dataset.bits
            )
            quantized_dot = undo_query_quantization_multibit(
                integer_dot,
                popcounts.astype(np.float64),
                rescales,
                quantized.delta,
                quantized.lower,
                float(quantized.sum_codes),
                code_length,
                dataset.bits,
            )
            return quantized_dot, alignments, norms

        if compute == "float":
            # Reference path: exact inner product with the unquantized
            # rotated query (no scalar-quantization error at all).
            signed = codebook.decode_codes(packed, code_length)
            quantized_dot = signed @ prepared.rotated
            return quantized_dot, alignments, norms

        if compute == "bitwise":
            integer_dot = bitops.binary_dot_uint(packed, quantized.bitplanes)
        elif compute == "lut":
            bits = bitops.unpack_bits(packed, code_length)
            segments = lut.split_into_segments(bits)
            integer_dot = lut.lut_accumulate(segments, prepared.luts)
        else:
            raise InvalidParameterError(
                f"compute must be one of {COMPUTE_MODES}, got {compute!r}"
            )

        # Undo the affine query quantization (Eq. 19-20):
        # <x_bar, q_bar> = 2 Delta / sqrt(D) <x_b, q_u>
        #                  + 2 v_l / sqrt(D) * popcount(x_b)
        #                  - Delta / sqrt(D) * sum(q_u) - sqrt(D) v_l
        sqrt_d = np.sqrt(float(code_length))
        delta = quantized.delta
        lower = quantized.lower
        quantized_dot = (
            2.0 * delta / sqrt_d * integer_dot.astype(np.float64)
            + 2.0 * lower / sqrt_d * popcounts.astype(np.float64)
            - delta / sqrt_d * float(quantized.sum_codes)
            - sqrt_d * lower
        )
        return quantized_dot, alignments, norms

    def estimate_distances(
        self,
        query: np.ndarray | QuantizedQuery,
        *,
        subset: np.ndarray | None = None,
        compute: str = "bitwise",
        epsilon0: float | None = None,
    ) -> DistanceEstimate:
        """Estimate squared distances from a raw query to the stored vectors.

        Parameters
        ----------
        query:
            Either a raw query vector or an already-prepared
            :class:`QuantizedQuery` (so the preparation cost can be shared).
        subset:
            Optional array of data-vector indices to estimate (used by the
            IVF index to restrict the computation to probed clusters).
        compute:
            ``"bitwise"`` (default), ``"lut"`` or ``"float"``.
        epsilon0:
            Override of the confidence parameter (used by the Fig. 5 sweep).

        Returns
        -------
        DistanceEstimate
            Unbiased squared-distance estimates with confidence bounds.
        """
        if compute not in COMPUTE_MODES:
            raise InvalidParameterError(
                f"compute must be one of {COMPUTE_MODES}, got {compute!r}"
            )
        prepared = (
            query if isinstance(query, QuantizedQuery) else self.prepare_query(query)
        )
        quantized_dot, alignments, norms = self._quantized_inner_products(
            prepared, subset, compute
        )
        eps = self.config.epsilon0 if epsilon0 is None else float(epsilon0)
        return estimate_distances(
            quantized_dot,
            alignments,
            norms,
            prepared.query_norm,
            self.dataset.code_length,
            eps,
            query_rounding=(
                0.5 * eps * prepared.quantized.delta
                if self.dataset.bits > 1
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #

    def reconstruct(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Return the quantized unit vectors ``ō`` (rotated back to data space).

        Mainly useful for tests and for the concentration experiments; the
        reconstruction lives in the padded ``code_length``-dimensional space.
        """
        dataset = self.dataset
        packed = (
            dataset.packed_codes
            if indices is None
            else dataset.packed_codes[np.asarray(indices, dtype=np.intp)]
        )
        if dataset.bits > 1:
            assert dataset.rescales is not None
            rescales = (
                dataset.rescales
                if indices is None
                else dataset.rescales[np.asarray(indices, dtype=np.intp)]
            )
            levels = bitops.unpack_level_planes(
                packed, dataset.code_length, dataset.bits
            )
            v = 2.0 * levels.astype(np.float64) - float(
                (1 << dataset.bits) - 1
            )
            signed = v * rescales[:, None]
            return self.rotation.apply(signed)
        return codebook.codes_to_matrix(packed, dataset.code_length, self.rotation)

    def code_bits(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Return codes as unpacked per-dimension integers.

        0/1 for the binary construction; level values in ``[0, 2^B - 1]``
        for multi-bit codes.
        """
        dataset = self.dataset
        packed = (
            dataset.packed_codes
            if indices is None
            else dataset.packed_codes[np.asarray(indices, dtype=np.intp)]
        )
        if dataset.bits > 1:
            return bitops.unpack_level_planes(
                packed, dataset.code_length, dataset.bits
            )
        return bitops.unpack_bits(packed, dataset.code_length)

    def compression_ratio(self) -> float:
        """Raw-vector bytes divided by quantization-code bytes."""
        dataset = self.dataset
        raw_bits = 32 * dataset.dim
        code_bits = dataset.code_length * dataset.bits
        return raw_bits / code_bits


__all__ = [
    "RaBitQ",
    "encode_rows",
    "encode_rows_multibit",
    "QuantizedDataset",
    "QuantizedQuery",
    "QuantizedQueryBatch",
    "COMPUTE_MODES",
]
