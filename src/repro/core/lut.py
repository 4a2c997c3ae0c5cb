"""4-bit look-up-table accumulation (the batch computation path of Sec. 3.3.2).

The paper's batch path splits each ``D``-bit code into ``D/4`` sub-segments of
4 bits and pre-computes, per sub-segment, a 16-entry table holding the inner
product between the quantized query's 4 coordinates in that sub-segment and
every possible 4-bit pattern.  ``<x_b, q_u>`` is then the sum of ``D/4`` table
lookups.  On real hardware the tables live in SIMD registers and the lookups
use shuffle instructions (the PQ fast-scan layout); here the same structure is
emulated with vectorized NumPy gathers, which preserves the algorithm and the
operation counts while running at NumPy speed.  No estimator calls these
kernels (a gather loop cannot beat the BLAS integer dot the estimators use);
they are the Sec. 3.3.2 reproduction ``benchmarks/bench_kernels.py`` times
on explicit operands.

Exactness contract: the query codes are small unsigned integers, so every LUT
entry (a sum of at most 4 of them) and every accumulated total (a sum of at
most ``code_length/4`` entries) is an integer far below 2**53.  Float64
accumulation is therefore *exact*, and the ``lut_accumulate`` path produces
bit-identical integer dots to :func:`repro.core.bitops.binary_dot_uint_batch`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidParameterError

#: Number of bits per look-up-table sub-segment (matches the AVX2 fast-scan layout).
SEGMENT_BITS = 4

#: Number of entries per look-up table.
SEGMENT_PATTERNS = 1 << SEGMENT_BITS

#: Bit values of each of the 16 patterns, pre-computed once.
_PATTERN_BITS = np.array(
    [[(pattern >> bit) & 1 for bit in range(SEGMENT_BITS)]
     for pattern in range(SEGMENT_PATTERNS)],
    dtype=np.float64,
)

def _as_segment_matrix(segment_ids: np.ndarray, n_segments: int) -> np.ndarray:
    """Normalize segment ids to a 2-D ``(n_codes, n_segments)`` batch.

    A 1-D input of size 0 is an *empty batch* (0 codes), not a single code
    of zero segments; without this rule ``np.atleast_2d`` would promote it
    to shape ``(1, 0)`` and fabricate a spurious result row.
    """
    ids = np.asarray(segment_ids)
    if ids.ndim == 1:
        ids = ids[None, :] if ids.size else ids.reshape(0, n_segments)
    elif ids.ndim != 2:
        raise InvalidParameterError(
            f"segment ids must be 1-D or 2-D, got ndim={ids.ndim}"
        )
    if ids.shape[1] != n_segments:
        raise DimensionMismatchError(
            f"segment count mismatch: codes have {ids.shape[1]}, "
            f"LUTs have {n_segments}"
        )
    return ids


def split_into_segments(bits: np.ndarray) -> np.ndarray:
    """Group a 0/1 bit matrix into 4-bit segment ids.

    Parameters
    ----------
    bits:
        Bit matrix of shape ``(n_codes, code_length)`` with ``code_length``
        a multiple of 4.

    Returns
    -------
    numpy.ndarray
        ``uint8`` matrix of shape ``(n_codes, code_length / 4)`` whose entry
        ``(i, s)`` is the 4-bit pattern of code ``i`` in segment ``s``
        (bit 0 of the segment is the lowest-order bit of the pattern).
    """
    arr = np.atleast_2d(np.asarray(bits))
    if arr.shape[-1] % SEGMENT_BITS != 0:
        raise InvalidParameterError(
            f"code length {arr.shape[-1]} is not a multiple of {SEGMENT_BITS}"
        )
    n_segments = arr.shape[-1] // SEGMENT_BITS
    reshaped = arr.reshape(arr.shape[0], n_segments, SEGMENT_BITS).astype(np.uint8)
    weights = (1 << np.arange(SEGMENT_BITS, dtype=np.uint8))
    return (reshaped * weights).sum(axis=-1, dtype=np.uint8)


def build_query_luts(query_codes: np.ndarray) -> np.ndarray:
    """Pre-compute the per-segment look-up tables for a quantized query.

    Parameters
    ----------
    query_codes:
        Unsigned-integer query coordinates ``q̄_u``, shape ``(code_length,)``
        with ``code_length`` a multiple of 4.  An empty query yields the
        well-shaped empty table ``(0, 16)``.

    Returns
    -------
    numpy.ndarray
        Float array of shape ``(code_length / 4, 16)``; entry ``(s, p)`` is
        the inner product between the query's coordinates in segment ``s``
        and the 4-bit binary pattern ``p``.
    """
    query = np.asarray(query_codes, dtype=np.float64).reshape(-1)
    if query.shape[0] % SEGMENT_BITS != 0:
        raise InvalidParameterError(
            f"query length {query.shape[0]} is not a multiple of {SEGMENT_BITS}"
        )
    n_segments = query.shape[0] // SEGMENT_BITS
    segments = query.reshape(n_segments, SEGMENT_BITS)
    # (n_segments, 16) = (n_segments, 4) @ (4, 16)
    return segments @ _PATTERN_BITS.T


def lut_accumulate(segment_ids: np.ndarray, luts: np.ndarray) -> np.ndarray:
    """Accumulate look-up-table values for a batch of codes.

    Parameters
    ----------
    segment_ids:
        Output of :func:`split_into_segments`, shape ``(n_codes, n_segments)``.
        An empty batch (0 codes) yields the well-shaped empty result ``(0,)``.
    luts:
        Output of :func:`build_query_luts`, shape ``(n_segments, 16)``.

    Returns
    -------
    numpy.ndarray
        ``<x_b, q̄_u>`` per code as ``float64`` (exact integers when the query
        codes are integers).
    """
    tables = np.asarray(luts, dtype=np.float64)
    if tables.ndim != 2 or tables.shape[1] != SEGMENT_PATTERNS:
        raise DimensionMismatchError(
            f"LUTs must have {SEGMENT_PATTERNS} entries per segment"
        )
    ids = _as_segment_matrix(segment_ids, tables.shape[0])
    segment_index = np.arange(ids.shape[1])[None, :]
    values = tables[segment_index, ids.astype(np.intp)]
    return values.sum(axis=1)


__all__ = [
    "SEGMENT_BITS",
    "SEGMENT_PATTERNS",
    "split_into_segments",
    "build_query_luts",
    "lut_accumulate",
]
