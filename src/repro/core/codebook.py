"""The conceptual RaBitQ codebook and bit-string code conversions.

The codebook is the set of ``2^D`` bi-valued vectors whose coordinates are
``±1/sqrt(D)`` (the vertices of a hypercube inscribed in the unit sphere),
randomly rotated.  As in the paper, the codebook is never materialized; a
quantization code is just the sign pattern of the inversely rotated data
vector, stored as a ``D``-bit string.

This module provides the conversions between the three representations used
across the library:

* ``signed``  — vectors with entries ``±1/sqrt(code_length)`` (the vector
  ``x̄`` of the paper),
* ``bits``    — 0/1 arrays (``x̄_b`` of the paper),
* ``packed``  — ``uint64``-packed bit strings (storage format).
"""

from __future__ import annotations

import numpy as np

from repro.core.bitops import unpack_bits
from repro.exceptions import InvalidParameterError


def signed_to_bits(signed: np.ndarray) -> np.ndarray:
    """Convert sign patterns to 0/1 bit arrays.

    Positive (and zero) entries map to 1, strictly negative entries to 0.
    Mapping zero to 1 is an arbitrary but fixed tie-breaking rule; ties occur
    only on padded dimensions and measure-zero inputs.
    """
    arr = np.asarray(signed, dtype=np.float64)
    return (arr >= 0.0).astype(np.uint8)


def bits_to_signed(bits: np.ndarray, code_length: int | None = None) -> np.ndarray:
    """Convert 0/1 bit arrays into bi-valued vectors ``±1/sqrt(code_length)``.

    This is the map ``x̄ = (2 x̄_b - 1) / sqrt(D)`` from Sec. 3.1.3.
    ``code_length`` defaults to the trailing dimension of ``bits``.
    """
    arr = np.asarray(bits, dtype=np.float64)
    if code_length is None:
        code_length = arr.shape[-1]
    if code_length <= 0:
        raise InvalidParameterError("code_length must be positive")
    return (2.0 * arr - 1.0) / np.sqrt(float(code_length))


def decode_codes(packed_codes: np.ndarray, code_length: int) -> np.ndarray:
    """Reconstruct bi-valued vectors ``x̄`` from packed codes."""
    bits = unpack_bits(packed_codes, code_length)
    return bits_to_signed(bits, code_length)


__all__ = [
    "signed_to_bits",
    "bits_to_signed",
    "decode_codes",
]
