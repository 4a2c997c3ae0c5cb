"""Packed bit-string kernels (the single-code computation path of Sec. 3.3.2).

RaBitQ quantization codes are ``D``-bit strings.  This module stores them as
packed ``uint64`` words (:func:`pack_bits` / :func:`unpack_bits`, and the
plane-major multi-bit layout of :func:`pack_level_planes`, which is what
the searcher's code arena keeps at rest) and provides the one integer-dot
kernel, :func:`binary_dot_uint_batch`, for every code width ``B`` and any
number of queries:

    <u, q_u> = sum_b sum_p 2^(b+p) * <u^(b), q_u^(p)>     (Eq. 21-22)

where ``u^(b)`` is the ``b``-th bit-plane of the code (one plane, the sign
bits, at ``B = 1``) and ``q_u^(p)`` the ``p``-th bit-plane of the quantized
query.  The kernel pairs every query with every code (cross form) or each
query with its own run of codes (paired form).  Small workloads evaluate
each ``<u^(b), q_u^(p)>`` as a bitwise AND followed by a popcount, the
paper's single-code path; large ones unpack the codes into levels and run
one BLAS call.  Both are integer-exact, and each wins its own regime (one
query over its probed candidates favours popcount, a group of queries
sharing a cluster favours BLAS), so the kernel picks by work size and
returns the same integers either way.
"""

from __future__ import annotations

import functools

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
    if arr.dtype != np.uint8 and arr.dtype != np.bool_:
        arr = arr.astype(np.uint8)
    return _words(np.packbits(arr, axis=-1, bitorder="little"))


def _words(packed_bytes: np.ndarray) -> np.ndarray:
    """``uint64`` words from LSB-first packed bytes along the last axis.

    ``np.packbits(bitorder="little")`` puts element ``8*j + k`` in bit ``k``
    of byte ``j``, which on a little-endian word is bit ``8*j + k``: the
    bytes are zero-padded to whole words and reinterpreted (a view, not an
    arithmetic reduction).  Only bit counts that are not a multiple of 64
    pay for the padded copy.
    """
    n_bytes = packed_bytes.shape[-1]
    n_word_bytes = -(-n_bytes // 8) * 8
    if n_word_bytes != n_bytes:
        padded = np.zeros(packed_bytes.shape[:-1] + (n_word_bytes,), np.uint8)
        padded[..., :n_bytes] = packed_bytes
        packed_bytes = padded
    return packed_bytes.view(_WORD_VIEW_DTYPE).astype(np.uint64, copy=False)


def _pack_planes(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed bit-planes ``(..., n_bits, n_words)`` of unsigned ``values``.

    Plane ``p`` holds bit ``p`` of every value along the last axis.  All
    planes are masked out of one array, in the narrowest dtype that holds
    ``n_bits`` bits, and packed with one ``np.packbits`` call (which sets
    the bit of every non-zero entry, so no shift is needed).
    """
    masks = _bit_masks(n_bits)
    plane_bits = values.astype(masks.dtype, copy=False)[..., None, :] & masks
    return _words(np.packbits(plane_bits, axis=-1, bitorder="little"))


@functools.lru_cache(maxsize=64)
def _bit_masks(n_bits: int) -> np.ndarray:
    """``(n_bits, 1)`` column of ``2^p`` in the narrowest unsigned dtype
    holding ``n_bits`` bits."""
    narrow = np.uint8 if n_bits <= 8 else np.uint16 if n_bits <= 16 else np.uint64
    masks = (np.uint64(1) << np.arange(n_bits, dtype=np.uint64)).astype(narrow)
    masks.flags.writeable = False
    return masks[:, None]


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


#: Strategy rule of :func:`binary_dot_uint_batch`: the popcount path runs
#: while its AND/popcount cells (pairs x code planes x query planes x
#: words, plus the query values it must pack into planes) stay below this
#: many per cell the unpacking path touches (codes x (code bits unpacked +
#: levels widened)); above it, unpacking the codes and one BLAS call win.
#: Timed on a 2-vCPU host at the ``perf/`` shape (128-d, 141 codes per
#: cluster, B_q = 4, values-only queries): the crossover sits between 0.09
#: and 0.22 for every B in {1, 2, 4, 8} (1-2 queries per cluster favour
#: popcount, 4 or more unpacking), and a query's whole probed set (paired
#: form, ratio ~0.05) favours popcount 2x.
_POPCOUNT_CELLS_PER_UNPACKED = 0.15

#: Cap on the cells of the unpacked code matrix per BLAS call (256 MiB in
#: float64); larger code sets are processed in chunks of codes.
_GEMM_MAX_CODE_CELLS = 32_000_000


def binary_dot_uint_batch(
    codes: np.ndarray,
    query_planes: np.ndarray | None = None,
    *,
    query_values: np.ndarray | None = None,
    bits: int = 1,
    code_length: int | None = None,
    segments: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The one integer-dot kernel: ``<u, q_u>`` from packed code words.

    ``codes`` holds ``bits``-wide codes as plane-major packed words
    (:func:`pack_level_planes`; one plane, i.e. :func:`pack_bits`, at
    ``bits = 1``) and the queries are ``B_q``-bit unsigned vectors given as
    packed bit-planes, unpacked values, or both.  The result is

        <u, q_u> = sum_b sum_p 2^(b+p) * popcount(u^(b) & q_u^(p))   (Eq. 21-22)

    over every code plane ``b`` and query plane ``p``.  Two exact
    strategies compute it, and the kernel picks by work size: small
    workloads run the AND + popcount on the packed words (the paper's
    single-code path); large ones unpack the codes into levels and hand the
    products to one BLAS call.  That call is *not* an approximation: every
    product and partial sum is a non-negative integer, run in float32 while
    the largest possible sum stays within 2^24 and in float64 (exact to
    2^53) otherwise, so both strategies return the same integers.  Bits
    past ``code_length`` in either operand are ignored.

    Parameters
    ----------
    codes:
        Packed codes, shape ``(n_codes, bits * n_words)``.
    query_planes:
        Packed query bit-planes, shape ``(n_queries, n_planes, n_words)``
        (see :func:`bitplanes_from_uint_batch`); one query's
        ``(n_planes, n_words)`` stack is promoted to a batch of one.  May be
        ``None`` when ``query_values`` is given: the planes are then packed
        from the values if the popcount strategy runs.
    query_values:
        Unpacked quantized query coordinates, shape ``(n_queries, n_dims)``
        with ``n_dims <= n_words * 64`` — the array the planes were packed
        from.  They spare the unpacking strategy rebuilding them.
    bits:
        Code width ``B`` (planes per code).
    code_length:
        Meaningful bits per plane; defaults to ``n_dims`` of
        ``query_values``, else ``n_words * 64``.
    segments:
        Paired form: ``(n_queries,)`` run lengths summing to ``n_codes``.
        Query ``i`` is scored only against the ``segments[i]`` consecutive
        codes of its run, and the result is ``(n_codes,)``.  Without it
        (cross form) every query meets every code.
    scratch:
        Optional flat float64 work area of at least ``n_codes *
        code_length`` cells, reused by the unpacking strategy.

    Returns
    -------
    numpy.ndarray
        ``int64`` inner products: ``(n_queries, n_codes)`` in cross form,
        ``(n_codes,)`` in paired form.  Each query's values depend on that
        query alone.
    """
    codes_arr = np.atleast_2d(np.asarray(codes, dtype=np.uint64))
    values = None if query_values is None else np.asarray(query_values)
    if query_planes is not None:
        planes = np.asarray(query_planes, dtype=np.uint64)
        if planes.ndim == 2:
            planes = planes[None, :, :]
        if planes.ndim != 3:
            raise DimensionMismatchError(
                "query_planes must have shape (n_queries, n_planes, n_words)"
            )
        n_queries, n_planes, n_words = planes.shape
    elif values is not None and values.ndim == 2:
        planes = None
        n_queries, n_words = values.shape[0], codes_arr.shape[-1] // bits
        n_planes = max(1, int(values.max(initial=0)).bit_length())
    else:
        raise DimensionMismatchError(
            "need query_planes or 2-D query_values"
        )
    if codes_arr.shape[-1] != bits * n_words:
        raise DimensionMismatchError(
            "codes must hold bits x n_words words, n_words matching the "
            "query planes"
        )
    if values is not None and (
        values.ndim != 2
        or values.shape[0] != n_queries
        or values.shape[1] > n_words * WORD_BITS
    ):
        raise DimensionMismatchError(
            "query_values must have shape (n_queries, n_dims) with "
            "n_dims <= n_words * 64"
        )
    if code_length is None:
        code_length = n_words * WORD_BITS if values is None else values.shape[1]
    if -(-code_length // WORD_BITS) != n_words or (
        values is not None and values.shape[1] < code_length
    ):
        raise DimensionMismatchError(
            f"code_length={code_length} does not fill the {n_words} words "
            f"per plane (or exceeds the query values)"
        )
    n_codes = codes_arr.shape[0]
    if segments is not None:
        segments = np.asarray(segments, dtype=np.int64).reshape(-1)
        if segments.shape[0] != n_queries or int(segments.sum()) != n_codes:
            raise DimensionMismatchError(
                "segments must give one run length per query, summing to "
                "the number of codes"
            )
        n_pairs, out_shape = n_codes, (n_codes,)
    else:
        n_pairs, out_shape = n_queries * n_codes, (n_queries, n_codes)
    if n_pairs == 0:
        return np.zeros(out_shape, dtype=np.int64)

    popcount_cells = n_pairs * bits * n_planes * n_words
    if planes is None:
        popcount_cells += n_queries * n_planes * code_length
    unpack_cells = n_codes * (bits * n_words * WORD_BITS + code_length)
    # The unpacking strategy is exact only while query values stay within
    # 16 bits; wider plane stacks always take the popcount path.
    if n_planes > 16 or (
        popcount_cells <= _POPCOUNT_CELLS_PER_UNPACKED * unpack_cells
    ):
        if planes is None:
            planes = _pack_planes(values, n_planes)
        return _dot_popcount(codes_arr, planes, bits, code_length, segments)
    if values is None:
        values = np.zeros((n_queries, code_length), dtype=np.uint64)
        for p in range(n_planes):
            values += unpack_bits(planes[:, p, :], code_length).astype(
                np.uint64
            ) << np.uint64(p)
    # The largest possible sum decides whether float32 is exact.
    exact32 = ((1 << bits) - 1) * ((1 << n_planes) - 1) * code_length <= 1 << 24
    return _dot_unpacked(
        codes_arr,
        values[:, :code_length].astype(np.float32 if exact32 else np.float64),
        bits,
        segments,
        scratch,
    )


@functools.lru_cache(maxsize=64)
def _popcount_operands(
    bits: int, n_planes: int, n_words: int, code_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The word mask of ``code_length`` bits and the ``2^(b+p)`` weights,
    one per (code plane, query plane, word) in :func:`_dot_popcount`'s
    order; cached, as every query of one index uses the same shape."""
    mask = np.full(n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if code_length % WORD_BITS:
        mask[-1] = (1 << (code_length % WORD_BITS)) - 1
    weights = np.ldexp(1.0, np.add.outer(np.arange(bits), np.arange(n_planes)))
    weights = np.repeat(weights.reshape(-1), n_words)
    mask.flags.writeable = weights.flags.writeable = False
    return mask, weights


def _dot_popcount(
    codes: np.ndarray,
    planes: np.ndarray,
    bits: int,
    code_length: int,
    segments: np.ndarray | None,
) -> np.ndarray:
    """The AND + popcount strategy of :func:`binary_dot_uint_batch`.

    Words are laid out code-innermost, ``(planes, words, codes)``, so every
    AND runs over a long contiguous axis.  The query planes are masked to
    ``code_length`` bits, which clears any padding in either operand.  The
    per-(code plane, query plane, word) counts are weighted by
    ``2^(b+p)`` in one float64 product, exact while the sums stay below
    2^53 (an integer product takes over past that).  Returns
    ``(n_codes,)`` in paired form, else ``(n_queries, n_codes)``.
    """
    n_queries, n_planes, n_words = planes.shape
    n_codes = codes.shape[0]
    mask, weights = _popcount_operands(bits, n_planes, n_words, code_length)
    if code_length % WORD_BITS:
        planes = planes & mask
    # (bits, n_words, n_codes): plane b, word w of every code, contiguous.
    code_words = np.ascontiguousarray(
        codes.reshape(n_codes, bits, n_words).transpose(1, 2, 0)
    )
    if segments is not None:
        # (n_planes, n_words, n_codes): each code's own query plane words.
        query_words = np.repeat(planes.transpose(1, 2, 0), segments, axis=2)
        anded = code_words[:, None] & query_words[None]
    else:
        anded = code_words[None, :, None] & planes[:, None, :, :, None]
    counts = np.bitwise_count(anded).reshape(-1, weights.shape[0], n_codes)
    if bits + n_planes + n_words.bit_length() + 6 <= 53:
        dots = np.matmul(weights, counts.astype(np.float64)).astype(np.int64)
    else:
        dots = np.matmul(weights.astype(np.int64), counts.astype(np.int64))
    return dots[0] if segments is not None else dots


def level_sums(
    codes: np.ndarray, code_length: int, bits: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """``sum_j u_j`` of plane-major packed ``codes``, as float64 (into ``out``).

    ``sum_p 2^p popcount(plane p)`` over each row's words, with any padding
    bits past ``code_length`` masked off: the popcount of a ``B = 1`` code,
    the level sum of a multi-bit one.  Every count is a small integer, so
    the float64 weighting is exact.
    """
    n_codes = codes.shape[0]
    n_words = codes.shape[1] // bits
    mask, weights = _popcount_operands(bits, 1, n_words, code_length)
    if code_length % WORD_BITS:
        codes = codes.reshape(n_codes, bits, n_words) & mask
    counts = np.bitwise_count(codes).reshape(n_codes, bits * n_words)
    return np.matmul(counts, weights, out=out)


def _unpack_levels(codes: np.ndarray, code_length: int, bits: int) -> np.ndarray:
    """``uint8`` levels of plane-major packed ``codes`` (unvalidated).

    Words are regrouped plane-major, ``(bits, rows, n_words)``, and
    unpacked by one flat unpackbits call (much cheaper than an axis-wise
    one); the padding bits are cut away at the end.  The result may be a
    non-contiguous view.
    """
    n_rows, n_words = codes.shape[0], codes.shape[1] // bits
    by_plane = np.ascontiguousarray(
        codes.reshape(n_rows, bits, n_words).transpose(1, 0, 2),
        dtype=_WORD_VIEW_DTYPE,
    )
    planes = np.unpackbits(by_plane.view(np.uint8), bitorder="little").reshape(
        bits, n_rows, n_words * WORD_BITS
    )
    if bits > 1:
        # Weight plane b by 2^b (a multiply: NumPy's uint8 shifts are far
        # slower) and OR the planes together in one reduction.
        np.multiply(planes, _bit_masks(bits)[:, :, None], out=planes)
        planes = np.bitwise_or.reduce(planes, axis=0, keepdims=True)
    return planes[0, :, :code_length]


def _dot_unpacked(
    codes: np.ndarray,
    values: np.ndarray,
    bits: int,
    segments: np.ndarray | None,
    scratch: np.ndarray | None,
) -> np.ndarray:
    """The unpack + BLAS strategy of :func:`binary_dot_uint_batch`.

    ``values`` are the query values already cut to the code length and
    cast to the exact float type.  Codes are unpacked to ``uint8`` levels
    in blocks of at most ``_GEMM_MAX_CODE_CELLS`` cells and widened into a
    work area of that type (carved from ``scratch`` when it is large
    enough); the cross form then runs one GEMM per block, the paired form
    one GEMV per query run.
    """
    n_codes = codes.shape[0]
    code_length = values.shape[1]
    chunk = max(1, _GEMM_MAX_CODE_CELLS // code_length)
    n_cells = min(n_codes, chunk) * code_length
    if scratch is None or scratch.nbytes < n_cells * values.itemsize:
        scratch = np.empty(n_cells, dtype=values.dtype)
    work = scratch.view(values.dtype)
    if segments is not None:
        out = np.empty(n_codes, dtype=values.dtype)
        bounds = np.concatenate([[0], np.cumsum(segments)]).tolist()
    else:
        out = np.empty((values.shape[0], n_codes), dtype=values.dtype)
    for start in range(0, n_codes, chunk):
        stop = min(start + chunk, n_codes)
        levels = work[: (stop - start) * code_length].reshape(
            stop - start, code_length
        )
        np.copyto(
            levels,
            _unpack_levels(codes[start:stop], code_length, bits),
            casting="unsafe",
        )
        if segments is None:
            out[:, start:stop] = values @ levels.T
            continue
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                out[lo:hi] = levels[lo - start : hi - start] @ values[i]
    return out.astype(np.int64)


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
    return _pack_planes(vals, n_bits)


def pack_level_planes(levels: np.ndarray, bits: int) -> np.ndarray:
    """Pack per-dimension level values into plane-major packed bit-planes.

    The multi-bit (extended) RaBitQ code of a vector is a level value
    ``u_j in [0, 2^bits - 1]`` per dimension.  Levels are stored as ``bits``
    packed bit-planes laid out plane-major: plane ``p`` (holding bit ``p``
    of every level) occupies words ``[p * n_words, (p+1) * n_words)`` of
    each row.  For ``bits == 1`` this is exactly :func:`pack_bits` of the
    0/1 code.  This is the layout the searcher's code arena keeps at rest
    and :func:`binary_dot_uint_batch` reads.

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
    planes = _pack_planes(arr, bits)
    return planes.reshape(arr.shape[:-1] + (bits * planes.shape[-1],))


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
    arr = np.atleast_2d(np.ascontiguousarray(packed, dtype=np.uint64))
    if bits < 1 or bits > 8:
        raise InvalidParameterError("bits must lie in [1, 8]")
    n_words = (code_length + WORD_BITS - 1) // WORD_BITS
    if arr.shape[-1] != bits * n_words:
        raise DimensionMismatchError(
            f"packed planes have {arr.shape[-1]} words; expected "
            f"{bits} x {n_words} for code length {code_length}"
        )
    lead = arr.shape[:-1]
    levels = _unpack_levels(arr.reshape(-1, arr.shape[-1]), code_length, bits)
    return np.ascontiguousarray(levels).reshape(lead + (code_length,))


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
    "level_sums",
    "binary_dot_uint_batch",
    "bitplanes_from_uint_batch",
    "pack_level_planes",
    "unpack_level_planes",
    "hamming_distance",
]
