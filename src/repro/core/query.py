"""Randomized uniform scalar quantization of the rotated query (Sec. 3.3.1).

At query time RaBitQ inversely rotates the normalized query ``q`` into
``q' = P^-1 q`` and quantizes each coordinate to a ``B_q``-bit unsigned
integer.  To keep the computation unbiased the rounding is randomized: a
value ``v = v_l + m * delta + t`` is rounded up with probability ``t /
delta`` and down otherwise (Eq. 18), which makes the expected quantized
value equal to the true value.

The uniforms ``u_i ~ U[0, 1)`` of that rule only have to be independent of
the query and the data, not fresh per call: the paper's guarantees are
about one fixed (query, vector) pair over the randomness of the index,
whose rotation ``P`` is also sampled once.  An index therefore draws *one*
vector at ``fit`` (:func:`sample_rounding_offsets`), keeps it beside ``P``
and passes it as ``offsets=`` to every quantization, which makes search a
pure function of (index, query).  Without ``offsets`` fresh uniforms are
drawn from ``rng`` (Algorithm 2 as written in the paper).

:func:`quantize_query_matrix` is the one quantizer, for a single query as
a one-row matrix as for many.  Each row is quantized on its own range, and
every row is rounded against the same ``offsets`` (or ``rng`` is consumed
in row order, degenerate constant rows drawing nothing), so a row's codes
do not depend on the rows beside it.

:func:`prepare_pairs` is the one query preparation: it builds the matrix of
(query, centroid) pairs with :func:`rotated_unit_residuals`, quantizes it
and derives every per-pair term the estimator reads.  The searcher calls it
once per search call (per query chunk of a very large batch) with all the
probed pairs, and
:class:`repro.core.quantizer.RaBitQ` once per ``prepare_queries`` call with
its one centroid.  ``P^-1`` is linear, so the rotated unit residual of a
pair is ``(P^-1 q - P^-1 c) / ||q - c||``: each query is rotated once,
however many centroids it is paired with, and the searcher derives
``P^-1 C`` once per index (:func:`rotate_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitops import bitplanes_from_uint_batch
from repro.core.config import RaBitQConfig
from repro.core.metric import Metric
from repro.core.rotation import Rotation
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.substrates.rng import RngLike, ensure_rng, spawn_rngs


def sample_rounding_offsets(seed: RngLike, code_length: int) -> np.ndarray:
    """An index's rounding vector ``u ~ U[0, 1)^L`` (Eq. 18) for ``seed``.

    Drawn from the second generator spawned from the configuration seed
    (the first samples the rotation), by ``fit`` and by the loaders of
    archives that predate storing it.
    """
    return spawn_rngs(seed, 2)[1].random(int(code_length))


def _round_to_levels(
    scaled: np.ndarray,
    levels: int,
    randomized: bool,
    rng: RngLike,
    offsets: np.ndarray | None,
    live: np.ndarray | None,
) -> None:
    """Round ``scaled`` coordinates (in units of ``Δ``) to ``[0, levels]``, in place.

    ``scaled`` is a matrix of queries ``(n, L)``; ``offsets`` (shape
    ``(L,)``, shared by all rows) are the uniforms of the randomized rule.
    When they are not supplied, they are drawn from ``rng`` per coordinate
    in row order, for the ``live`` rows only (``None``: every row).
    """
    if not randomized:
        np.round(scaled, out=scaled)
    else:
        if offsets is None:
            n_live = scaled.shape[0] if live is None else int(live.sum())
            draws = ensure_rng(rng).random((n_live, scaled.shape[1]))
            if live is None:
                scaled += draws
            else:
                scaled[live] += draws
        elif np.shape(offsets) != scaled.shape[-1:]:
            raise DimensionMismatchError("offsets must have shape (code_length,)")
        else:
            scaled += offsets
        np.floor(scaled, out=scaled)
    np.clip(scaled, 0, levels, out=scaled)


@dataclass(frozen=True)
class QuantizedQueryMatrix:
    """A batch of scalar-quantized rotated queries (one per row).

    Attributes
    ----------
    codes:
        Unsigned integer representations, shape ``(n_queries, code_length)``.
    lower:
        Per-query range minima ``v_l``, shape ``(n_queries,)``.
    delta:
        Per-query step sizes ``Δ``, shape ``(n_queries,)``.
    bits:
        Bit width ``B_q`` (shared by all queries).
    sum_codes:
        Per-query code sums, shape ``(n_queries,)``.
    bitplanes:
        Packed bit-planes, shape ``(n_queries, bits, n_words)``.
    """

    codes: np.ndarray
    lower: np.ndarray
    delta: np.ndarray
    bits: int
    sum_codes: np.ndarray
    bitplanes: np.ndarray | None

    @property
    def n_queries(self) -> int:
        """Number of quantized queries in the batch."""
        return int(self.codes.shape[0])

    @property
    def code_length(self) -> int:
        """Number of quantized coordinates per query."""
        return int(self.codes.shape[1])

    def dequantize(self) -> np.ndarray:
        """Reconstruct ``q̄ = Δ * q̄_u + v_l`` row-wise."""
        return (
            self.delta[:, None] * self.codes.astype(np.float64) + self.lower[:, None]
        )


def quantize_query_matrix(
    rotated_queries: np.ndarray,
    bits: int,
    *,
    randomized: bool = True,
    rng: RngLike = None,
    offsets: np.ndarray | None = None,
    with_bitplanes: bool = True,
) -> QuantizedQueryMatrix:
    """Quantize a matrix of rotated queries into ``B_q``-bit unsigned integers.

    Row ``i`` gets its own range ``[v_l, v_r]`` and step ``Δ = (v_r - v_l) /
    (2^{B_q} - 1)``; a degenerate row (constant, or a range whose step
    underflows to zero) quantizes to level 0 with ``Δ = 1`` and consumes no
    randomness.

    Parameters
    ----------
    rotated_queries:
        The rotated queries ``q' = P^-1 q``, shape ``(n_queries,
        code_length)``.  An empty batch (0 rows) is allowed.
    bits:
        Bit width ``B_q`` (1 to 16).
    randomized:
        Use randomized rounding (the paper's default, required for the
        unbiasedness of the computation).  When ``False`` the conventional
        round-to-nearest rule is applied (exposed for the ablation study).
    rng:
        Seed or generator the rounding offsets are drawn from when
        ``offsets`` is not given (consumed in row order).
    offsets:
        The rounding uniforms as data, one ``(code_length,)`` vector shared
        by every row (an index passes its fit-time vector); ``rng`` is then
        unused.
    with_bitplanes:
        Also pack the bit-planes for the popcount kernel (the default).
        The searcher skips them (``bitplanes`` is then ``None``; no
        randomness is consumed either way): it passes the values alone, and
        :func:`repro.core.bitops.binary_dot_uint_batch` packs planes only
        when it picks its popcount strategy.
    """
    mat = np.asarray(rotated_queries, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatchError("rotated_queries must be a 2-D matrix")
    n_queries, code_length = mat.shape
    if n_queries and code_length == 0:
        raise DimensionMismatchError("rotated_queries must be non-empty")
    if not 1 <= int(bits) <= 16:
        raise InvalidParameterError("bits must lie in [1, 16]")
    bits = int(bits)
    levels = (1 << bits) - 1

    if n_queries == 0:
        empty_codes = np.zeros((0, code_length), dtype=np.uint64)
        return QuantizedQueryMatrix(
            codes=empty_codes,
            lower=np.zeros(0, dtype=np.float64),
            delta=np.ones(0, dtype=np.float64),
            bits=bits,
            sum_codes=np.zeros(0, dtype=np.int64),
            bitplanes=(
                bitplanes_from_uint_batch(empty_codes, bits)
                if with_bitplanes
                else None
            ),
        )

    lower = mat.min(axis=1)
    upper = mat.max(axis=1)
    step = (upper - lower) / levels
    # A NaN range lands in the live branch (``~(step <= 0)``) and consumes
    # its rounding draw like any other live row.
    live = ~(step <= 0.0)
    delta = np.where(live, step, 1.0)
    if live.all():
        live = None

    # One buffer, updated in place: every row is scaled (a degenerate row
    # by Δ = 1, so nothing overflows), rounded and clipped, and the
    # degenerate rows are zeroed last.  A live row sees exactly the
    # operations of a row-by-row quantization, in the same order.
    scaled = np.subtract(mat, lower[:, None])
    scaled /= delta[:, None]
    _round_to_levels(scaled, levels, randomized, rng, offsets, live)
    if live is not None:
        scaled[~live] = 0.0
    codes = scaled.astype(np.uint64)

    return QuantizedQueryMatrix(
        codes=codes,
        lower=lower,
        delta=delta,
        bits=bits,
        # A float sum of integers below 2^53 is exact.
        sum_codes=scaled.sum(axis=1).astype(np.int64),
        bitplanes=(
            bitplanes_from_uint_batch(codes, bits) if with_bitplanes else None
        ),
    )


def rotate_rows(rotation: Rotation, rows: np.ndarray) -> np.ndarray:
    """``P^-1`` applied to each row of ``rows``, zero-padded to ``rotation.dim``.

    One ``(1, L)`` call per row (a GEMM may round an ULP apart from a GEMV),
    so a row's result does not depend on the rows beside it.
    """
    out = np.empty((rows.shape[0], rotation.dim), dtype=np.float64)
    padded = np.zeros((1, rotation.dim), dtype=np.float64)
    for i in range(rows.shape[0]):
        padded[0, : rows.shape[1]] = rows[i]
        out[i] = rotation.apply_inverse(padded)[0]
    return out


def rotated_unit_residuals(
    rotation: Rotation,
    queries: np.ndarray,
    centroids: np.ndarray,
    rotated_centroids: np.ndarray,
    query_rows: np.ndarray,
    centroid_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``P^-1 (q - c) / ||q - c||`` and ``||q - c||`` per (query, centroid) pair.

    Pair ``i`` is ``queries[query_rows[i]]`` against
    ``centroids[centroid_ids[i]]``; ``rotated_centroids`` is
    :func:`rotate_rows` of ``centroids``.  Every row of ``queries`` is
    rotated once, then the rotated rows are differenced and scaled, so the
    result is ``P^-1`` of the unit residual up to rounding.  The norm is
    taken of the residual itself (a row-wise ``einsum``), not of a norm
    expansion, which cancels when ``||q|| >> ||q - c||``.  A query on its
    centroid gives norm 0 and the zero row.  Every step is per row or
    elementwise, so a pair's result does not depend on the pairs beside it.
    """
    residuals = queries[query_rows] - centroids[centroid_ids]
    norms = np.sqrt(np.einsum("ij,ij->i", residuals, residuals))
    units = rotate_rows(rotation, queries)[query_rows]
    units -= rotated_centroids[centroid_ids]
    units /= np.where(norms > 0.0, norms, 1.0)[:, None]
    units[norms == 0.0] = 0.0
    return units, norms


def query_rounding_term(delta: np.ndarray, epsilon0: float) -> np.ndarray:
    """``eps0 Δ/2``, the query-rounding term of the ``B > 1`` bound."""
    return 0.5 * float(epsilon0) * delta


def prepare_pairs(
    queries: np.ndarray,
    query_rows: np.ndarray,
    centroid_ids: np.ndarray,
    *,
    rotation: Rotation,
    centroids: np.ndarray,
    rotated_centroids: np.ndarray,
    centroid_sq_norms: np.ndarray,
    rounding_offsets: np.ndarray,
    config: RaBitQConfig,
    metric: Metric,
) -> tuple[QuantizedQueryMatrix, np.ndarray, dict[str, np.ndarray]]:
    """Prepare (query, centroid) pairs for estimation (Alg. 2, lines 1-2).

    Pair ``i`` is ``queries[query_rows[i]]`` in the frame of centroid
    ``centroid_ids[i]``; ``rotated_centroids`` and ``centroid_sq_norms``
    are :func:`rotate_rows` and ``||c||^2`` of ``centroids``.  Returns
    ``(quantized, rotated, terms)``: the rotated unit residuals of
    :func:`rotated_unit_residuals`, quantized against ``rounding_offsets``
    at ``config.query_bits`` (no bit-planes), and every per-pair term
    :func:`repro.core.estimator.estimate_codes` reads, one value per pair:

    * ``delta`` (Δ), ``lower`` (``v_l``) and ``sums`` (``Σq_u``), the
      affine undo's;
    * ``query_norms`` (``||q - c||``);
    * ``query_rounding`` (:func:`query_rounding_term` at
      ``config.epsilon0``), for ``B > 1`` codes only;
    * ``query_offset`` (``<q, c> - ||c||^2``) under similarity metrics and
      ``query_raw_norm`` (``||q||``) under cosine.

    Every step is per row or elementwise, so a pair's result does not
    depend on the pairs beside it; a query on its centroid becomes the zero
    row, which quantizes to ``Δ = 1`` and codes 0.
    """
    rotated, query_norms = rotated_unit_residuals(
        rotation, queries, centroids, rotated_centroids, query_rows, centroid_ids
    )
    quantized = quantize_query_matrix(
        rotated,
        config.query_bits,
        randomized=config.randomized_rounding,
        offsets=rounding_offsets,
        with_bitplanes=False,
    )
    terms = {
        "delta": quantized.delta,
        "lower": quantized.lower,
        "sums": quantized.sum_codes.astype(np.float64),
        "query_norms": query_norms,
    }
    if config.bits > 1:
        terms["query_rounding"] = query_rounding_term(
            quantized.delta, config.epsilon0
        )
    if metric.higher_is_better:
        terms["query_offset"] = np.array(
            [
                float(np.dot(queries[qi], centroids[cid]))
                - float(centroid_sq_norms[cid])
                for qi, cid in zip(query_rows.tolist(), centroid_ids.tolist())
            ]
        )
    if metric.name == "cosine":
        raw_norms = np.array([float(np.sqrt(np.dot(row, row))) for row in queries])
        terms["query_raw_norm"] = raw_norms[query_rows]
    return quantized, rotated, terms


def dequantization_error(
    rotated_queries: np.ndarray, quantized: QuantizedQueryMatrix
) -> np.ndarray:
    """Maximum absolute per-coordinate error of each quantized query row.

    The randomized rounding guarantees this never exceeds the row's ``Δ``;
    the tests check it.
    """
    mat = np.asarray(rotated_queries, dtype=np.float64)
    if mat.shape != quantized.codes.shape:
        raise DimensionMismatchError("query and quantized query shapes differ")
    return np.max(np.abs(mat - quantized.dequantize()), axis=1)


__all__ = [
    "QuantizedQueryMatrix",
    "quantize_query_matrix",
    "prepare_pairs",
    "query_rounding_term",
    "sample_rounding_offsets",
    "dequantization_error",
]
