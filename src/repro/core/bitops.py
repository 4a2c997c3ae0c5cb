"""Packed bit-string kernels (the single-code computation path of Sec. 3.3.2).

RaBitQ quantization codes are ``D``-bit strings.  This module stores them as
packed ``uint64`` words (:func:`pack_bits` / :func:`unpack_bits`, and the
plane-major multi-bit layout of :func:`pack_level_planes`) and provides the
one integer-dot kernel, :func:`binary_dot_uint_batch`, for any number of
queries (one included):

    <x_b, q_u> = sum_j 2^j * <x_b, q_u^(j)>            (Eq. 21-22)

where ``q_u^(j)`` is the ``j``-th bit-plane of the quantized query.  Small
workloads evaluate each ``<x_b, q_u^(j)>`` as a bitwise AND followed by a
popcount, the paper's single-code path; large ones unpack the codes and run
one GEMM.  Both are integer-exact, and each wins its own regime (a single
query over thousands of codes favours popcount, a hundred queries favour
GEMM), so the kernel picks by size and returns the same integers either way.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidParameterError

#: Number of bits per packed word.
WORD_BITS = 64

#: Explicit little-endian word dtype: the byte-level pack/unpack kernels
#: rely on byte ``j`` of a word holding bits ``8j .. 8j+7``, which is the
#: little-endian layout.  ``astype`` from/to this dtype is a no-op on
#: little-endian platforms and a byte swap on big-endian ones, keeping the
#: packed format platform-independent.
_WORD_VIEW_DTYPE = np.dtype("<u8")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an array of 0/1 values into ``uint64`` words.

    Parameters
    ----------
    bits:
        Array of shape ``(..., n_bits)`` containing only 0s and 1s.  The
        trailing dimension is padded with zeros to a multiple of 64.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(..., ceil(n_bits / 64))`` and dtype ``uint64``.
        Bit ``i`` of the original array is stored in word ``i // 64`` at bit
        position ``i % 64`` (LSB-first within each word).
    """
    arr = np.asarray(bits)
    if arr.ndim == 0:
        raise InvalidParameterError("bits must have at least one dimension")
    # Cheap hot-path validation: a fused elementwise check instead of the
    # former sort-based ``np.unique`` scan (O(n log n) and an extra copy).
    if arr.size and ((arr != 0) & (arr != 1)).any():
        raise InvalidParameterError("bits must contain only 0s and 1s")
    n_bits = arr.shape[-1]
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    if arr.dtype != np.uint8 and arr.dtype != np.bool_:
        arr = arr.astype(np.uint8)
    # ``np.packbits(bitorder="little")`` packs element ``8*j + k`` into bit
    # ``k`` of byte ``j`` — exactly the LSB-first layout of our words on a
    # little-endian platform, so the packed bytes can be reinterpreted as
    # ``uint64`` words directly (a view, not an arithmetic reduction).
    packed_bytes = np.packbits(arr, axis=-1, bitorder="little")
    n_word_bytes = n_words * (WORD_BITS // 8)
    if packed_bytes.shape[-1] != n_word_bytes:
        # Only inputs whose bit count is not a multiple of 64 pay for the
        # zero-padded copy; aligned inputs are viewed in place.
        padded = np.zeros(arr.shape[:-1] + (n_word_bytes,), dtype=np.uint8)
        padded[..., : packed_bytes.shape[-1]] = packed_bytes
        packed_bytes = padded
    words = packed_bytes.view(_WORD_VIEW_DTYPE).astype(np.uint64, copy=False)
    return words.reshape(arr.shape[:-1] + (n_words,))


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a 0/1 array of ``uint8``.

    The words are expanded with a single :func:`numpy.unpackbits` call
    bounded by ``count=n_bits``, so no ``(..., n_words, 64)`` intermediate is
    materialized: peak memory is the output array itself (plus the byte view
    of the input), not 8x the output as with the former broadcasted-shift
    expansion.
    """
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    if n_bits < 0:
        raise InvalidParameterError("n_bits must be non-negative")
    n_words = arr.shape[-1] if arr.ndim else 0
    if n_bits > n_words * WORD_BITS:
        raise InvalidParameterError(
            f"n_bits={n_bits} exceeds capacity of {n_words} words"
        )
    if arr.size == 0 or n_bits == 0:
        return np.zeros(arr.shape[:-1] + (n_bits,), dtype=np.uint8)
    as_bytes = arr.astype(_WORD_VIEW_DTYPE, copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=n_bits, bitorder="little")


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits in each ``uint64`` word (vectorized)."""
    return np.bitwise_count(np.asarray(words, dtype=np.uint64))


def popcount_total(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """Total number of set bits along ``axis`` (typically the word axis)."""
    return popcount(words).sum(axis=axis, dtype=np.int64)


#: Below this many ``n_queries * n_codes * n_words`` cells the broadcasted
#: popcount path wins (no unpacking); above it the kernel unpacks and hands
#: the work to BLAS GEMM, which is exact for these integer magnitudes
#: (every partial sum stays far below 2^53).
_BATCH_KERNEL_GEMM_CELLS = 32_768

#: Cap on the float64 cells of the unpacked code matrix per GEMM call
#: (about 256 MiB); larger code sets are processed in chunks of codes.
_GEMM_MAX_CODE_CELLS = 32_000_000


def binary_dot_uint_batch(
    codes: np.ndarray,
    query_planes: np.ndarray,
    *,
    query_values: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``<x_b, q_u>`` for every (query, code) pair (batch Eq. 21-22).

    Two exact execution strategies share this entry point: small workloads
    run the broadcasted AND + popcount directly on the packed words; large
    ones unpack the codes (in bounded chunks along the code axis) and
    evaluate the batch as float64 GEMMs.  The GEMM is *not* an
    approximation — bits are 0/1 and the quantized query coordinates fit in
    16 bits, so every product and partial sum is an integer far below 2^53
    and float64 arithmetic is exact regardless of accumulation order.

    Parameters
    ----------
    codes:
        Packed binary codes, shape ``(n_codes, n_words)``.
    query_planes:
        Packed bit-planes of the quantized queries, shape
        ``(n_queries, n_planes, n_words)`` (see
        :func:`bitplanes_from_uint_batch`); one query's
        ``(n_planes, n_words)`` stack is promoted to a batch of one.
    query_values:
        Optional unpacked quantized query coordinates of shape
        ``(n_queries, n_dims)`` with ``n_dims <= n_words * 64`` — the array
        ``query_planes`` was packed from, e.g. the ``codes`` of a
        :class:`~repro.core.query.QuantizedQueryMatrix`.  Passing them lets
        the GEMM path skip reconstructing them from the bit-planes; the
        result is identical either way.

    Returns
    -------
    numpy.ndarray
        Integer inner products of shape ``(n_queries, n_codes)`` as
        ``int64``.  Row ``i`` equals the call on ``query_planes[i]`` alone
        exactly (both strategies are integer-exact).
    """
    codes_arr = np.atleast_2d(np.asarray(codes, dtype=np.uint64))
    planes = np.asarray(query_planes, dtype=np.uint64)
    if planes.ndim == 2:
        planes = planes[None, :, :]
    if planes.ndim != 3:
        raise DimensionMismatchError(
            "query_planes must have shape (n_queries, n_planes, n_words)"
        )
    if codes_arr.shape[-1] != planes.shape[-1]:
        raise DimensionMismatchError(
            "codes and query_planes must have the same number of words"
        )
    n_queries, n_planes, n_words = planes.shape
    n_codes = codes_arr.shape[0]
    n_bits = n_words * WORD_BITS
    if query_values is not None:
        provided = np.asarray(query_values)
        if (
            provided.ndim != 2
            or provided.shape[0] != n_queries
            or provided.shape[1] > n_bits
        ):
            raise DimensionMismatchError(
                "query_values must have shape (n_queries, n_dims) with "
                "n_dims <= n_words * 64"
            )
    total = np.zeros((n_queries, n_codes), dtype=np.int64)
    if n_codes == 0 or n_queries == 0:
        return total

    # The GEMM strategy is exact only while every product and partial sum
    # stays an integer below 2^53; query values of at most 16 bits guarantee
    # that with huge margin, so wider bit-plane stacks always take the
    # popcount path.
    if n_planes <= 16 and n_queries * n_codes * n_words >= _BATCH_KERNEL_GEMM_CELLS:
        values = np.zeros((n_queries, n_bits), dtype=np.float64)
        if query_values is not None:
            values[:, : provided.shape[1]] = provided.astype(np.float64)
        else:
            for j in range(n_planes):
                values += float(1 << j) * unpack_bits(
                    planes[:, j, :], n_bits
                ).astype(np.float64)
        # Chunk the code axis so the unpacked float64 code matrix stays
        # bounded; each chunk fills a column block of the result.
        chunk = max(1, _GEMM_MAX_CODE_CELLS // n_bits)
        for start in range(0, n_codes, chunk):
            block = codes_arr[start : start + chunk]
            code_bits = unpack_bits(block, n_bits).astype(np.float64)
            total[:, start : start + chunk] = np.rint(
                values @ code_bits.T
            ).astype(np.int64)
        return total

    for j in range(n_planes):
        anded = codes_arr[None, :, :] & planes[:, j, None, :]
        total += popcount(anded).sum(axis=-1, dtype=np.int64) << j
    return total


def bitplanes_from_uint_batch(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Decompose a matrix of unsigned integers into packed bit-planes.

    Parameters
    ----------
    values:
        Unsigned integers, shape ``(n_queries, n_dims)`` (one quantized query
        per row).
    n_bits:
        Number of bit-planes to extract (``B_q``).

    Returns
    -------
    numpy.ndarray
        Packed planes of shape ``(n_queries, n_bits, ceil(n_dims / 64))``;
        entry ``[i, j]`` packs bit ``j`` of every value in row ``i``, and
        depends on that row alone.
    """
    vals = np.asarray(values, dtype=np.uint64)
    if vals.ndim != 2:
        raise DimensionMismatchError("values must be two-dimensional")
    if n_bits < 1:
        raise InvalidParameterError("n_bits must be at least 1")
    max_allowed = (1 << n_bits) - 1
    if vals.size and int(vals.max()) > max_allowed:
        raise InvalidParameterError(
            f"values contain {int(vals.max())} which does not fit in {n_bits} bits"
        )
    planes = [
        pack_bits(((vals >> np.uint64(j)) & np.uint64(1)).astype(np.uint8))
        for j in range(n_bits)
    ]
    return np.stack(planes, axis=1)


def pack_level_planes(levels: np.ndarray, bits: int) -> np.ndarray:
    """Pack per-dimension level values into plane-major packed bit-planes.

    The multi-bit (extended) RaBitQ code of a vector is a level value
    ``u_j in [0, 2^bits - 1]`` per dimension.  Levels are stored as ``bits``
    packed bit-planes laid out plane-major: plane ``p`` (holding bit ``p``
    of every level) occupies words ``[p * n_words, (p+1) * n_words)`` of
    each row.  For ``bits == 1`` this is exactly :func:`pack_bits` of the
    0/1 code, so the binary kernels operate on the one plane unchanged.
    The planes are packed from ``uint8`` bytes directly, with no wider
    temporaries.

    Parameters
    ----------
    levels:
        Level matrix of shape ``(n_rows, code_length)`` with values in
        ``[0, 2^bits - 1]``.
    bits:
        Bits per dimension ``B``.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of shape ``(n_rows, bits * ceil(code_length/64))``.
    """
    arr = np.atleast_2d(np.asarray(levels))
    if not 1 <= bits <= 8:
        raise InvalidParameterError("bits must lie in [1, 8]")
    max_allowed = (1 << bits) - 1
    if arr.size and (arr.min() < 0 or arr.max() > max_allowed):
        raise InvalidParameterError(
            f"levels must lie in [0, {max_allowed}] for bits={bits}"
        )
    levels8 = arr.astype(np.uint8, copy=False)
    n_bytes = (arr.shape[-1] + WORD_BITS - 1) // WORD_BITS * (WORD_BITS // 8)
    # One zero-padded byte row per plane; ``np.packbits`` sets the bit of
    # every non-zero input, i.e. of every level with bit ``p`` set.
    planes = np.zeros(arr.shape[:-1] + (bits, n_bytes), dtype=np.uint8)
    for p in range(bits):
        packed = np.packbits(levels8 & np.uint8(1 << p), axis=-1, bitorder="little")
        planes[..., p, : packed.shape[-1]] = packed
    words = planes.view(_WORD_VIEW_DTYPE).astype(np.uint64, copy=False)
    return words.reshape(arr.shape[:-1] + (bits * n_bytes // 8,))


def unpack_level_planes(
    packed: np.ndarray, code_length: int, bits: int
) -> np.ndarray:
    """Inverse of :func:`pack_level_planes`; returns ``uint8`` levels.

    Parameters
    ----------
    packed:
        Plane-major packed planes, shape ``(n_rows, bits * n_words)`` with
        ``n_words = ceil(code_length / 64)``.
    code_length:
        Number of level values per row.
    bits:
        Bits per dimension ``B`` (levels must fit in ``uint8``, i.e.
        ``bits <= 8``).

    Returns
    -------
    numpy.ndarray
        ``uint8`` matrix of shape ``(n_rows, code_length)``.
    """
    arr = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
    if bits < 1 or bits > 8:
        raise InvalidParameterError("bits must lie in [1, 8]")
    n_words = (code_length + WORD_BITS - 1) // WORD_BITS
    if arr.shape[-1] != bits * n_words:
        raise DimensionMismatchError(
            f"packed planes have {arr.shape[-1]} words; expected "
            f"{bits} x {n_words} for code length {code_length}"
        )
    out = np.zeros(arr.shape[:-1] + (code_length,), dtype=np.uint8)
    for p in range(bits):
        plane = unpack_bits(
            arr[..., p * n_words : (p + 1) * n_words], code_length
        )
        out |= plane << p
    return out


def hamming_distance(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed codes (broadcasting on the first axis)."""
    a = np.asarray(codes_a, dtype=np.uint64)
    b = np.asarray(codes_b, dtype=np.uint64)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError("codes must have the same number of words")
    return popcount(a ^ b).sum(axis=-1, dtype=np.int64)


__all__ = [
    "WORD_BITS",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "popcount_total",
    "binary_dot_uint_batch",
    "bitplanes_from_uint_batch",
    "pack_level_planes",
    "unpack_level_planes",
    "hamming_distance",
]
