"""Centroid-based normalization of raw vectors (Sec. 3.1.1).

RaBitQ works on *unit* vectors.  Raw data vectors are centred on a centroid
``c`` (the dataset mean, or the per-cluster IVF centroid) and scaled to unit
norm.  The squared distance between raw vectors then decomposes (Eq. 2) into

    ||o_r - q_r||^2 = ||o_r - c||^2 + ||q_r - c||^2
                      - 2 ||o_r - c|| ||q_r - c|| <o, q>,

so estimating the raw distance reduces to estimating the inner product of
the normalized vectors.  The norms ``||o_r - c||`` are pre-computed at index
time; ``||q_r - c||`` is computed once per query.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.substrates.linalg import as_float_matrix


def compute_centroid(data: np.ndarray) -> np.ndarray:
    """Mean of the raw data vectors (the default normalization centroid)."""
    mat = as_float_matrix(data, "data")
    return mat.mean(axis=0)


def pad_vectors(vectors: np.ndarray, target_dim: int) -> np.ndarray:
    """Zero-pad vectors to ``target_dim`` columns (code-length padding).

    Padding raw dimensions with zeros before encoding lengthens the
    quantization code and sharpens the error bound (paper Sec. 5.1) without
    changing any norms or inner products.
    """
    mat = as_float_matrix(vectors, "vectors")
    if target_dim < mat.shape[1]:
        raise DimensionMismatchError(
            f"target_dim={target_dim} is smaller than the vector dimension "
            f"{mat.shape[1]}"
        )
    if target_dim == mat.shape[1]:
        return mat
    padded = np.zeros((mat.shape[0], target_dim), dtype=np.float64)
    padded[:, : mat.shape[1]] = mat
    return padded


__all__ = [
    "compute_centroid",
    "pad_vectors",
]
