"""Table 6 (Appendix F.1) — ablation of the codebook construction.

The ablation keeps RaBitQ's estimator but replaces the randomly rotated
bi-valued codebook with a *learned* bi-valued codebook: instead of a random
rotation, the rotation is learned OPQ-style so that the (sign-quantized)
reconstruction error is minimized.  The paper reports that this learned
codebook *degrades* both the average and the maximum relative error on GIST,
because the estimator's guarantees rely on the Haar-random rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import codebook
from repro.core.config import RaBitQConfig
from repro.core.normalization import pad_vectors
from repro.core.quantizer import RaBitQ
from repro.core.rotation import QRRotation
from repro.datasets.synthetic import Dataset
from repro.exceptions import InvalidParameterError
from repro.metrics.relative_error import average_relative_error, max_relative_error
from repro.substrates.linalg import (
    as_float_matrix,
    normalize_rows,
    pairwise_squared_distances,
)


@dataclass(frozen=True)
class CodebookAblationResult:
    """Error statistics of one codebook variant."""

    dataset: str
    codebook: str
    avg_relative_error: float
    max_relative_error: float


def learn_sign_rotation(
    data_units: np.ndarray, n_iterations: int = 5
) -> np.ndarray:
    """Learn an orthogonal rotation that minimizes sign-quantization error.

    This is the "learned codebook" of the ablation: alternate between
    (1) sign-quantizing the rotated data onto the bi-valued hypercube and
    (2) solving the orthogonal Procrustes problem aligning the data with its
    quantized reconstruction.  It mirrors what an OPQ-style optimization
    would do for a bi-valued codebook (ITQ-style learning).
    """
    if n_iterations < 1:
        raise InvalidParameterError("n_iterations must be at least 1")
    dim = data_units.shape[1]
    rotation = np.eye(dim)
    for _ in range(n_iterations):
        rotated = data_units @ rotation
        signed = codebook.bits_to_signed(codebook.signed_to_bits(rotated), dim)
        u_mat, _, vt_mat = np.linalg.svd(data_units.T @ signed)
        rotation = u_mat @ vt_mat
    return rotation


def run_codebook_ablation(
    dataset: Dataset,
    *,
    n_queries: int = 10,
    seed: int = 0,
) -> list[CodebookAblationResult]:
    """Compare the random codebook against the learned codebook (Table 6)."""
    if n_queries <= 0:
        raise InvalidParameterError("n_queries must be positive")
    queries = dataset.queries[:n_queries]
    true = pairwise_squared_distances(queries, dataset.data)
    results: list[CodebookAblationResult] = []

    # Random codebook: the standard RaBitQ quantizer.  The code length is
    # pinned to the data dimension so both variants use identical budgets.
    config = RaBitQConfig(seed=seed, code_length=dataset.dim)
    random_quantizer = RaBitQ(config).fit(dataset.data)
    estimates = np.empty_like(true)
    for i, query in enumerate(queries):
        estimates[i] = random_quantizer.estimate_distances(query).distances
    results.append(
        CodebookAblationResult(
            dataset=dataset.name,
            codebook="random",
            avg_relative_error=average_relative_error(estimates.ravel(), true.ravel()),
            max_relative_error=max_relative_error(estimates.ravel(), true.ravel()),
        )
    )

    # Learned codebook: learn a rotation on the normalized data, then reuse
    # the RaBitQ machinery with that (non-random) rotation.  The learned
    # rotation must live in the padded code-length space.
    code_length = config.resolve_code_length(dataset.dim)
    raw = as_float_matrix(dataset.data, "data")
    units = normalize_rows(raw - raw.mean(axis=0)[None, :])
    padded_units = pad_vectors(units, code_length)
    learned_matrix = learn_sign_rotation(padded_units)
    # RaBitQ applies P^-1 to the data; provide P = learned_matrix so that
    # P^-1 x = x @ learned_matrix gives the learned projection.
    learned_rotation = QRRotation.from_matrix(learned_matrix)
    learned_quantizer = RaBitQ(config).fit(dataset.data, rotation=learned_rotation)
    for i, query in enumerate(queries):
        estimates[i] = learned_quantizer.estimate_distances(query).distances
    results.append(
        CodebookAblationResult(
            dataset=dataset.name,
            codebook="learned",
            avg_relative_error=average_relative_error(estimates.ravel(), true.ravel()),
            max_relative_error=max_relative_error(estimates.ravel(), true.ravel()),
        )
    )
    return results


__all__ = [
    "CodebookAblationResult",
    "learn_sign_rotation",
    "run_codebook_ablation",
]
