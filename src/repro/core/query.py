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

Two granularities share one rounding rule:

* :func:`quantize_query_vector` — one query at a time,
* :func:`quantize_query_matrix` — a whole matrix of rotated queries at once,
  for the batch search engine.  Row ``i`` equals the scalar call on row
  ``i`` bit for bit: every row is rounded against the same ``offsets``, or
  ``rng`` is consumed in row order (degenerate constant rows draw nothing,
  mirroring the scalar path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitops import bitplanes_from_uint, bitplanes_from_uint_batch
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
) -> np.ndarray:
    """Round ``scaled`` coordinates (in units of ``Δ``) to ``[0, levels]``.

    ``scaled`` is one query ``(L,)`` or a matrix of them ``(n, L)``;
    ``offsets`` (shape ``(L,)``, shared by all rows) are the uniforms of the
    randomized rule, drawn from ``rng`` per coordinate when not supplied.
    """
    if not randomized:
        return np.clip(np.round(scaled), 0, levels)
    if offsets is None:
        offsets = ensure_rng(rng).random(scaled.shape)
    elif np.shape(offsets) != scaled.shape[-1:]:
        raise DimensionMismatchError("offsets must have shape (code_length,)")
    return np.clip(np.floor(scaled + offsets), 0, levels)


@dataclass(frozen=True)
class QuantizedQueryVector:
    """A scalar-quantized rotated query vector.

    Attributes
    ----------
    codes:
        Unsigned integer representation ``q̄_u`` of each coordinate,
        shape ``(code_length,)``.
    lower:
        The range minimum ``v_l`` used by the quantizer.
    delta:
        The step size ``Δ = (v_r - v_l) / (2^{B_q} - 1)``.
    bits:
        Bit width ``B_q``.
    sum_codes:
        Pre-computed ``sum_i q̄_u[i]`` (shared across all data vectors in
        Eq. 20).
    bitplanes:
        Packed bit-planes of ``codes`` for the popcount kernel, shape
        ``(bits, n_words)``.
    """

    codes: np.ndarray
    lower: float
    delta: float
    bits: int
    sum_codes: int
    bitplanes: np.ndarray | None

    @property
    def code_length(self) -> int:
        """Number of quantized coordinates."""
        return int(self.codes.shape[0])

    def dequantize(self) -> np.ndarray:
        """Reconstruct ``q̄ = Δ * q̄_u + v_l``."""
        return self.delta * self.codes.astype(np.float64) + self.lower


def quantize_query_vector(
    rotated_query: np.ndarray,
    bits: int,
    *,
    randomized: bool = True,
    rng: RngLike = None,
    offsets: np.ndarray | None = None,
    with_bitplanes: bool = True,
) -> QuantizedQueryVector:
    """Quantize the rotated query ``q'`` into ``B_q``-bit unsigned integers.

    Parameters
    ----------
    rotated_query:
        The vector ``q' = P^-1 q``, shape ``(code_length,)``.
    bits:
        Bit width ``B_q`` (1 to 16).
    randomized:
        Use randomized rounding (the paper's default, required for the
        unbiasedness of the computation).  When ``False`` the conventional
        round-to-nearest rule is applied (exposed for the ablation study).
    rng:
        Seed or generator the rounding offsets are drawn from when
        ``offsets`` is not given.
    offsets:
        The rounding uniforms as data, shape ``(code_length,)`` (an index
        passes its fit-time vector); ``rng`` is then unused.
    with_bitplanes:
        Also pack the bit-planes for the popcount kernel (the default).
        Callers on the GEMM/arena path never touch them; skipping the
        packing there removes the most expensive step of query preparation
        without consuming any randomness (``bitplanes`` is then ``None``).
    """
    query = np.asarray(rotated_query, dtype=np.float64).reshape(-1)
    if query.size == 0:
        raise DimensionMismatchError("rotated_query must be non-empty")
    if not 1 <= int(bits) <= 16:
        raise InvalidParameterError("bits must lie in [1, 16]")
    bits = int(bits)

    lower = float(query.min())
    upper = float(query.max())
    levels = (1 << bits) - 1
    delta = (upper - lower) / levels
    if delta <= 0.0:
        # Degenerate query — constant, or a subnormal range whose step
        # underflows to zero: every coordinate quantizes to level 0.
        codes = np.zeros(query.shape[0], dtype=np.uint64)
        delta = 1.0
    else:
        codes = _round_to_levels(
            (query - lower) / delta, levels, randomized, rng, offsets
        ).astype(np.uint64)

    planes = bitplanes_from_uint(codes, bits) if with_bitplanes else None
    return QuantizedQueryVector(
        codes=codes,
        lower=lower,
        delta=float(delta),
        bits=bits,
        sum_codes=int(codes.sum()),
        bitplanes=planes,
    )


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

    def row(self, i: int) -> QuantizedQueryVector:
        """The ``i``-th query as a single :class:`QuantizedQueryVector`."""
        return QuantizedQueryVector(
            codes=self.codes[i],
            lower=float(self.lower[i]),
            delta=float(self.delta[i]),
            bits=self.bits,
            sum_codes=int(self.sum_codes[i]),
            bitplanes=None if self.bitplanes is None else self.bitplanes[i],
        )

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
    """Quantize a matrix of rotated queries into ``B_q``-bit integers.

    Exactly equivalent to calling :func:`quantize_query_vector` on each row
    with the same ``offsets`` (or the same generator): per-row
    minima/maxima, step sizes and rounding offsets match the scalar path
    bit for bit, and degenerate (constant) rows consume no randomness, just
    as the scalar path skips its draw.

    Parameters
    ----------
    rotated_queries:
        The rotated queries ``q' = P^-1 q``, shape ``(n_queries,
        code_length)``.  An empty batch (0 rows) is allowed.
    bits / randomized / rng / offsets / with_bitplanes:
        As in :func:`quantize_query_vector`; ``offsets`` is one
        ``(code_length,)`` vector shared by every row.
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
    # Mirror the scalar branch condition (``if delta <= 0.0``) exactly: a
    # NaN range must land in the live branch (and consume a rounding draw)
    # just as it does in quantize_query_vector, or the RNG streams of the two
    # paths would desynchronize for every later row.
    live = ~(step <= 0.0)

    codes = np.zeros((n_queries, code_length), dtype=np.float64)
    delta = np.ones(n_queries, dtype=np.float64)
    if live.any():
        delta[live] = step[live]
        scaled = (mat[live] - lower[live, None]) / delta[live, None]
        codes[live] = _round_to_levels(scaled, levels, randomized, rng, offsets)
    codes = codes.astype(np.uint64)

    return QuantizedQueryMatrix(
        codes=codes,
        lower=lower,
        delta=delta,
        bits=bits,
        sum_codes=codes.sum(axis=1, dtype=np.int64),
        bitplanes=(
            bitplanes_from_uint_batch(codes, bits) if with_bitplanes else None
        ),
    )


def dequantization_error(
    rotated_query: np.ndarray, quantized: QuantizedQueryVector
) -> float:
    """Maximum absolute per-coordinate error of a quantized query.

    Used in tests and in the B_q verification experiment; the randomized
    rounding guarantees this never exceeds ``Δ``.
    """
    query = np.asarray(rotated_query, dtype=np.float64).reshape(-1)
    if query.shape[0] != quantized.code_length:
        raise DimensionMismatchError("query and quantized query lengths differ")
    return float(np.max(np.abs(query - quantized.dequantize())))


__all__ = [
    "QuantizedQueryVector",
    "QuantizedQueryMatrix",
    "quantize_query_vector",
    "quantize_query_matrix",
    "sample_rounding_offsets",
    "dequantization_error",
]
