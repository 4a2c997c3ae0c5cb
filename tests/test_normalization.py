"""Tests for repro.core.normalization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.normalization import compute_centroid, pad_vectors
from repro.exceptions import DimensionMismatchError


class TestComputeCentroid:
    def test_mean(self, rng):
        data = rng.standard_normal((20, 5))
        np.testing.assert_allclose(compute_centroid(data), data.mean(axis=0))


class TestPadVectors:
    def test_padding_adds_zeros(self, rng):
        data = rng.standard_normal((5, 10))
        padded = pad_vectors(data, 16)
        np.testing.assert_allclose(padded[:, :10], data)
        np.testing.assert_allclose(padded[:, 10:], 0.0)

    def test_no_padding_needed(self, rng):
        data = rng.standard_normal((5, 8))
        np.testing.assert_allclose(pad_vectors(data, 8), data)

    def test_padding_preserves_norms(self, rng):
        data = rng.standard_normal((5, 10))
        padded = pad_vectors(data, 64)
        np.testing.assert_allclose(
            np.linalg.norm(padded, axis=1), np.linalg.norm(data, axis=1)
        )

    def test_padding_preserves_inner_products(self, rng):
        a = rng.standard_normal((3, 10))
        b = rng.standard_normal((3, 10))
        before = np.einsum("ij,ij->i", a, b)
        after = np.einsum("ij,ij->i", pad_vectors(a, 32), pad_vectors(b, 32))
        np.testing.assert_allclose(before, after)

    def test_truncation_rejected(self, rng):
        with pytest.raises(DimensionMismatchError):
            pad_vectors(rng.standard_normal((2, 10)), 8)
