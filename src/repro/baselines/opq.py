"""Optimized Product Quantization (OPQ).

OPQ (Ge et al., 2013) learns an orthogonal rotation ``R`` jointly with the PQ
codebooks so that the rotated data is better aligned with the product
structure of the codebook.  Training alternates between

1. fitting / re-encoding a PQ on the rotated data, and
2. updating ``R`` by solving an orthogonal Procrustes problem between the
   original data and the PQ reconstruction.

This is the non-parametric OPQ variant.  At query time the query is rotated
with ``R`` and the standard PQ asymmetric distance computation is applied.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pq import ProductQuantizer
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.substrates.linalg import as_float_matrix, require_finite
from repro.substrates.rng import RngLike, ensure_rng


class OptimizedProductQuantizer:
    """OPQ: a learned rotation followed by Product Quantization.

    Parameters
    ----------
    n_segments:
        Number of PQ sub-segments ``M``.
    code_bits:
        Bits per segment code ``k``.
    n_iterations:
        Number of rotation/codebook alternations.
    quantize_lut:
        Forwarded to the inner :class:`ProductQuantizer`.
    kmeans_iters:
        Lloyd iterations per sub-codebook per alternation.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        n_segments: int,
        code_bits: int = 8,
        *,
        n_iterations: int = 5,
        quantize_lut: bool = False,
        kmeans_iters: int = 10,
        rng: RngLike = None,
    ) -> None:
        if n_iterations < 1:
            raise InvalidParameterError("n_iterations must be at least 1")
        self.n_segments = int(n_segments)
        self.code_bits = int(code_bits)
        self.n_iterations = int(n_iterations)
        self.quantize_lut = bool(quantize_lut)
        self.kmeans_iters = int(kmeans_iters)
        self._rng = ensure_rng(rng)
        self._rotation: np.ndarray | None = None
        self._pq: ProductQuantizer | None = None
        self._dim: int | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._pq is not None

    @property
    def rotation(self) -> np.ndarray:
        """The learned orthogonal rotation matrix ``R`` of shape ``(D, D)``."""
        if self._rotation is None:
            raise NotFittedError("OptimizedProductQuantizer must be fitted before use")
        return self._rotation

    @property
    def pq(self) -> ProductQuantizer:
        """The inner Product Quantizer operating on rotated data."""
        if self._pq is None:
            raise NotFittedError("OptimizedProductQuantizer must be fitted before use")
        return self._pq

    @property
    def codes(self) -> np.ndarray:
        """Codes of the fitted data, shape ``(n_vectors, n_segments)``."""
        return self.pq.codes

    def fit(self, data: np.ndarray) -> "OptimizedProductQuantizer":
        """Learn the rotation and the PQ codebooks on ``data``."""
        mat = as_float_matrix(data, "data")
        if mat.shape[0] == 0:
            raise EmptyDatasetError("cannot fit OPQ on an empty dataset")
        if mat.shape[1] % self.n_segments != 0:
            raise DimensionMismatchError(
                f"dimension {mat.shape[1]} is not divisible by "
                f"n_segments={self.n_segments}"
            )
        # Before the first rotation turns an inf into NaNs and a warning.
        require_finite(mat, "data")
        self._dim = mat.shape[1]
        rotation = np.eye(self._dim)

        pq: ProductQuantizer | None = None
        for _ in range(self.n_iterations):
            rotated = mat @ rotation
            pq = ProductQuantizer(
                self.n_segments,
                self.code_bits,
                quantize_lut=self.quantize_lut,
                kmeans_iters=self.kmeans_iters,
                rng=self._rng,
            ).fit(rotated)
            reconstruction = pq.decode()
            # Orthogonal Procrustes: R = argmin ||X R - Y||_F with R orthogonal,
            # solved by the SVD of X^T Y.
            u_mat, _, vt_mat = np.linalg.svd(mat.T @ reconstruction)
            rotation = u_mat @ vt_mat

        # Final encoding with the last rotation.
        self._rotation = rotation
        self._pq = ProductQuantizer(
            self.n_segments,
            self.code_bits,
            quantize_lut=self.quantize_lut,
            kmeans_iters=self.kmeans_iters,
            rng=self._rng,
        ).fit(mat @ rotation)
        return self

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode vectors: rotate then PQ-encode."""
        mat = as_float_matrix(data, "data")
        if mat.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"data has dimension {mat.shape[1]}, quantizer expects {self._dim}"
            )
        return self.pq.encode(mat @ self.rotation)

    def decode(self, codes: np.ndarray | None = None) -> np.ndarray:
        """Reconstruct vectors in the original (un-rotated) space."""
        reconstructed = self.pq.decode(codes)
        return reconstructed @ self.rotation.T

    def estimate_distances(
        self, query: np.ndarray, *, codes: np.ndarray | None = None
    ) -> np.ndarray:
        """ADC distance estimates (rotation preserves Euclidean distances)."""
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self._dim:
            raise DimensionMismatchError(
                f"query has dimension {vec.shape[0]}, quantizer expects {self._dim}"
            )
        return self.pq.estimate_distances(vec @ self.rotation, codes=codes)

    def code_size_bits(self) -> int:
        """Size of one quantization code in bits."""
        return self.n_segments * self.code_bits

    def quantization_error(self, data: np.ndarray) -> float:
        """Mean squared reconstruction error of encoding then decoding ``data``."""
        mat = as_float_matrix(data, "data")
        codes = self.encode(mat)
        reconstructed = self.decode(codes)
        diff = mat - reconstructed
        return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


__all__ = ["OptimizedProductQuantizer"]
