"""Tests for repro.core.lut (4-bit LUT fast-scan emulation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lut import (
    SEGMENT_BITS,
    SEGMENT_PATTERNS,
    build_query_luts,
    lut_accumulate,
    split_into_segments,
)
from repro.exceptions import DimensionMismatchError, InvalidParameterError


class TestSplitIntoSegments:
    def test_shape(self, rng):
        bits = rng.integers(0, 2, size=(5, 64))
        assert split_into_segments(bits).shape == (5, 16)

    def test_pattern_values(self):
        bits = np.array([[1, 0, 1, 1, 0, 0, 0, 1]])
        segments = split_into_segments(bits)
        # First segment: bits (1,0,1,1) -> 1 + 4 + 8 = 13; second: 8.
        np.testing.assert_array_equal(segments, [[13, 8]])

    def test_requires_multiple_of_four(self):
        with pytest.raises(InvalidParameterError):
            split_into_segments(np.zeros((2, 6)))


class TestBuildQueryLuts:
    def test_shape(self, rng):
        query = rng.integers(0, 16, size=64).astype(np.float64)
        assert build_query_luts(query).shape == (16, SEGMENT_PATTERNS)

    def test_pattern_zero_is_zero(self, rng):
        query = rng.integers(0, 16, size=32).astype(np.float64)
        luts = build_query_luts(query)
        np.testing.assert_allclose(luts[:, 0], 0.0)

    def test_pattern_all_ones_is_segment_sum(self, rng):
        query = rng.integers(0, 16, size=32).astype(np.float64)
        luts = build_query_luts(query)
        segment_sums = query.reshape(-1, SEGMENT_BITS).sum(axis=1)
        np.testing.assert_allclose(luts[:, SEGMENT_PATTERNS - 1], segment_sums)

    def test_requires_multiple_of_four(self):
        with pytest.raises(InvalidParameterError):
            build_query_luts(np.zeros(10))

    def test_empty_query_yields_empty_tables(self):
        # Regression: an empty query is a degenerate-but-legal input and
        # must produce the well-shaped empty table, not an error.
        luts = build_query_luts(np.zeros(0))
        assert luts.shape == (0, SEGMENT_PATTERNS)


class TestDegenerateShapes:
    """Empty code batches / queries return well-shaped empty results.

    Regression tests: ``np.atleast_2d`` used to promote a 1-D empty input
    to shape ``(1, 0)``, fabricating a spurious result row.
    """

    def test_accumulate_empty_2d(self):
        luts = np.zeros((4, SEGMENT_PATTERNS))
        out = lut_accumulate(np.zeros((0, 4), dtype=np.uint8), luts)
        assert out.shape == (0,)

    def test_accumulate_empty_1d(self):
        luts = np.zeros((4, SEGMENT_PATTERNS))
        out = lut_accumulate(np.zeros(0, dtype=np.uint8), luts)
        assert out.shape == (0,)

    def test_accumulate_rejects_3d(self):
        luts = np.zeros((4, SEGMENT_PATTERNS))
        with pytest.raises(InvalidParameterError):
            lut_accumulate(np.zeros((1, 1, 4), dtype=np.uint8), luts)


class TestLutAccumulate:
    def test_matches_naive_inner_product(self, rng):
        n_codes, length = 20, 96
        bits = rng.integers(0, 2, size=(n_codes, length))
        query = rng.integers(0, 16, size=length).astype(np.float64)
        expected = bits @ query
        segments = split_into_segments(bits)
        luts = build_query_luts(query)
        np.testing.assert_allclose(lut_accumulate(segments, luts), expected)

    def test_segment_count_mismatch(self, rng):
        segments = np.zeros((2, 8), dtype=np.uint8)
        luts = np.zeros((9, SEGMENT_PATTERNS))
        with pytest.raises(DimensionMismatchError):
            lut_accumulate(segments, luts)

    def test_wrong_lut_width(self):
        segments = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(DimensionMismatchError):
            lut_accumulate(segments, np.zeros((4, 8)))

