"""Tests for repro.core.query (randomized scalar quantization of the query)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import (
    QuantizedQueryMatrix,
    dequantization_error,
    quantize_query_matrix,
)
from repro.core.theory import scalar_quantization_error_scale
from repro.exceptions import DimensionMismatchError, InvalidParameterError


def quantize_one(query, bits, **kwargs):
    """One query quantized as a one-row matrix."""
    return quantize_query_matrix(np.asarray(query)[None, :], bits, **kwargs)


class TestQuantizeQueryVector:
    """One query at a time: a one-row :func:`quantize_query_matrix`."""

    def test_codes_within_range(self, rng):
        query = rng.standard_normal(128)
        for bits in (1, 2, 4, 8):
            quantized = quantize_one(query, bits, rng=0)
            assert int(quantized.codes.max()) <= (1 << bits) - 1
            assert int(quantized.codes.min()) >= 0

    def test_metadata_consistency(self, rng):
        query = rng.standard_normal(64)
        quantized = quantize_one(query, 4, rng=0)
        assert quantized.code_length == 64
        assert quantized.sum_codes[0] == int(quantized.codes.sum())
        assert quantized.bits == 4
        assert quantized.bitplanes.shape == (1, 4, 1)

    def test_dequantize_close_to_original(self, rng):
        query = rng.standard_normal(256)
        quantized = quantize_one(query, 8, rng=0)
        assert dequantization_error(query[None, :], quantized) <= quantized.delta + 1e-12

    def test_randomized_rounding_error_bounded_by_delta(self, rng):
        query = rng.standard_normal(100)
        quantized = quantize_one(query, 4, randomized=True, rng=0)
        errors = np.abs(quantized.dequantize()[0] - query)
        assert (errors <= quantized.delta + 1e-12).all()

    def test_deterministic_rounding_error_bounded_by_half_delta(self, rng):
        query = rng.standard_normal(100)
        quantized = quantize_one(query, 4, randomized=False)
        errors = np.abs(quantized.dequantize()[0] - query)
        assert (errors <= quantized.delta / 2 + 1e-12).all()

    def test_randomized_rounding_is_unbiased(self):
        # Repeated quantization of the same vector should average out to the
        # original values (per-coordinate expectation equals the true value).
        rng = np.random.default_rng(0)
        query = rng.standard_normal(32)
        repeats = 400
        acc = np.zeros_like(query)
        for i in range(repeats):
            quantized = quantize_one(query, 3, randomized=True, rng=i)
            acc += quantized.dequantize()[0]
        mean = acc / repeats
        quantized = quantize_one(query, 3, randomized=True, rng=0)
        # The bias should be far below the quantization step.
        assert np.max(np.abs(mean - query)) < 0.15 * quantized.delta

    def test_constant_query(self):
        quantized = quantize_one(np.full(16, 2.5), 4, rng=0)
        np.testing.assert_array_equal(quantized.codes, 0)
        np.testing.assert_allclose(quantized.dequantize(), 2.5)

    def test_extremes_map_to_extreme_levels(self):
        query = np.array([0.0, 1.0, 0.5])
        quantized = quantize_one(query, 2, randomized=False)
        assert int(quantized.codes[0, 0]) == 0
        assert int(quantized.codes[0, 1]) == 3

    def test_error_decreases_with_bits(self, rng):
        query = rng.standard_normal(512)
        errors = []
        for bits in (1, 2, 4, 8):
            quantized = quantize_one(query, bits, randomized=False)
            errors.append(np.mean(np.abs(quantized.dequantize()[0] - query)))
        assert errors == sorted(errors, reverse=True)

    def test_theoretical_scale_is_consistent(self):
        # Table 5: the error scale halves for every extra bit.
        ratio = scalar_quantization_error_scale(128, 4) / scalar_quantization_error_scale(
            128, 5
        )
        assert ratio == pytest.approx(2.0)

    def test_empty_query_raises(self):
        with pytest.raises(DimensionMismatchError):
            quantize_one(np.empty(0), 4)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_invalid_bits(self, bits, rng):
        with pytest.raises(InvalidParameterError):
            quantize_one(rng.standard_normal(8), bits)

    def test_dequantization_error_length_mismatch(self, rng):
        quantized = quantize_one(rng.standard_normal(8), 4, rng=0)
        with pytest.raises(DimensionMismatchError):
            dequantization_error(rng.standard_normal((1, 9)), quantized)

    def test_result_is_dataclass_with_expected_fields(self, rng):
        quantized = quantize_one(rng.standard_normal(8), 4, rng=0)
        assert isinstance(quantized, QuantizedQueryMatrix)
        assert set(quantized.__dataclass_fields__) == {
            "codes",
            "lower",
            "delta",
            "bits",
            "sum_codes",
            "bitplanes",
        }


class TestSubnormalRange:
    """A range whose step ``(max - min) / levels`` underflows to zero.

    The division used to yield inf/NaN coordinates whose ``uint64`` cast is
    garbage (``2**63``): a misattributed ``InvalidParameterError`` with
    bit-planes, silent garbage codes without.  It now takes the
    constant-query branch and draws nothing, so a row's rounding offsets
    do not depend on the degenerate rows before it.
    """

    QUERY = np.array([5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bits", [2, 4])
    @pytest.mark.parametrize("with_bitplanes", [True, False])
    def test_vector_takes_the_constant_branch(self, bits, with_bitplanes):
        # One query rounded against an index's rounding vector, as the
        # searcher prepares it.
        quantized = quantize_one(
            self.QUERY,
            bits,
            offsets=np.full(self.QUERY.shape[0], 0.5),
            with_bitplanes=with_bitplanes,
        )
        np.testing.assert_array_equal(quantized.codes, 0)
        assert quantized.delta[0] == 1.0
        assert quantized.sum_codes[0] == 0
        assert (quantized.bitplanes is not None) == with_bitplanes

    @pytest.mark.parametrize("bits", [2, 4])
    @pytest.mark.parametrize("with_bitplanes", [True, False])
    def test_matrix_takes_the_constant_branch(self, bits, with_bitplanes):
        quantized = quantize_query_matrix(
            self.QUERY[None, :], bits, rng=0, with_bitplanes=with_bitplanes
        )
        np.testing.assert_array_equal(quantized.codes, 0)
        np.testing.assert_array_equal(quantized.delta, [1.0])
        np.testing.assert_array_equal(quantized.sum_codes, [0])
        assert (quantized.bitplanes is not None) == with_bitplanes

    @pytest.mark.parametrize("bits", [2, 4])
    def test_matrix_rows_match_vector_calls_on_a_mixed_batch(self, bits, rng):
        ordinary = rng.standard_normal((3, self.QUERY.shape[0]))
        batch = np.vstack(
            [ordinary[0], self.QUERY, ordinary[1], np.full(8, 2.5), ordinary[2]]
        )
        matrix = quantize_query_matrix(
            batch, bits, rng=np.random.default_rng(7)
        )
        # One shared generator: a degenerate row that drew (or a live row
        # that did not) would shift every later row's rounding offsets.
        shared = np.random.default_rng(7)
        for i, query in enumerate(batch):
            single = quantize_one(query, bits, rng=shared)
            np.testing.assert_array_equal(matrix.codes[i], single.codes[0])
            np.testing.assert_array_equal(matrix.bitplanes[i], single.bitplanes[0])
            for name in ("lower", "delta", "sum_codes"):
                assert getattr(matrix, name)[i] == getattr(single, name)[0]


def _masked_quantize(mat, bits, *, randomized=True, rng=None, offsets=None):
    """Reference: the masked quantizer, live rows copied out and scattered
    back.  Returns ``(codes, lower, delta, sum_codes)``."""
    levels = (1 << bits) - 1
    lower, upper = mat.min(axis=1), mat.max(axis=1)
    step = (upper - lower) / levels
    live = ~(step <= 0.0)
    codes = np.zeros(mat.shape, dtype=np.float64)
    delta = np.ones(mat.shape[0], dtype=np.float64)
    if live.any():
        delta[live] = step[live]
        scaled = (mat[live] - lower[live, None]) / delta[live, None]
        if not randomized:
            codes[live] = np.clip(np.round(scaled), 0, levels)
        else:
            if offsets is None:
                offsets = np.random.default_rng(rng).random(scaled.shape)
            codes[live] = np.clip(np.floor(scaled + offsets), 0, levels)
    codes = codes.astype(np.uint64)
    return codes, lower, delta, codes.sum(axis=1, dtype=np.int64)


class TestInPlaceQuantizer:
    """One in-place pass over one buffer equals the masked quantizer: codes,
    ``lower``, ``delta`` and ``sum_codes`` (int64), bit for bit."""

    @staticmethod
    def _mixed_batch(rng, length=37):
        rows = [
            rng.standard_normal(length),
            np.full(length, 2.5),  # constant
            rng.standard_normal(length) * 1e3,
            np.zeros(length),  # zero
            TestSubnormalRange.QUERY[np.arange(length) % 8],  # step underflows
            rng.uniform(-1e-3, 1e-3, length),
        ]
        return np.vstack([rows[i] for i in rng.permutation(len(rows))])

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("source", ["offsets", "rng", "round"])
    def test_matches_the_masked_quantizer(self, bits, source, rng):
        for trial in range(5):
            batch = self._mixed_batch(rng)
            if trial == 0:
                batch = batch[[0]]  # a single live row
            kwargs = {}
            if source == "offsets":
                kwargs["offsets"] = rng.random(batch.shape[1])
            elif source == "round":
                kwargs["randomized"] = False
            want = _masked_quantize(
                batch, bits, rng=trial if source == "rng" else None, **kwargs
            )
            got = quantize_query_matrix(
                batch,
                bits,
                rng=trial if source == "rng" else None,
                with_bitplanes=False,
                **kwargs,
            )
            assert got.codes.dtype == np.uint64
            assert got.sum_codes.dtype == np.int64
            for name, value in zip(("codes", "lower", "delta", "sum_codes"), want):
                np.testing.assert_array_equal(getattr(got, name), value)
                assert getattr(got, name).dtype == value.dtype

