"""Tests for repro.core.bitops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitops import (
    WORD_BITS,
    binary_dot_uint_batch,
    bitplanes_from_uint_batch,
    hamming_distance,
    level_sums,
    pack_bits,
    pack_level_planes,
    popcount,
    popcount_total,
    unpack_bits,
    unpack_level_planes,
)
from repro.exceptions import DimensionMismatchError, InvalidParameterError


class TestPackUnpack:
    def test_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(5, 130)).astype(np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (5, 3)
        np.testing.assert_array_equal(unpack_bits(packed, 130), bits)

    def test_single_vector(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (1,)
        assert int(packed[0]) == 0b1101

    def test_exact_word_boundary(self, rng):
        bits = rng.integers(0, 2, size=(3, 128)).astype(np.uint8)
        assert pack_bits(bits).shape == (3, 2)

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidParameterError):
            pack_bits(np.array([0, 1, 2]))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 1, -1]),
            np.array([0.5, 0.0, 1.0]),
            np.array([[0, 1], [1, 2]]),
            np.array([0, 1, 1 + 1e-9]),
        ],
        ids=["negative", "fractional", "matrix-with-two", "near-one"],
    )
    def test_rejects_non_binary_variants(self, bad):
        with pytest.raises(InvalidParameterError):
            pack_bits(bad)

    def test_accepts_bool_and_float_binaries(self):
        np.testing.assert_array_equal(
            pack_bits(np.array([True, False, True])),
            pack_bits(np.array([1.0, 0.0, 1.0])),
        )

    def test_rejects_scalar(self):
        with pytest.raises(InvalidParameterError):
            pack_bits(np.array(1))

    def test_unpack_too_many_bits(self):
        packed = pack_bits(np.zeros(64, dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            unpack_bits(packed, 65)

    def test_unpack_negative_bits(self):
        packed = pack_bits(np.zeros(64, dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            unpack_bits(packed, -1)

    def test_padding_bits_are_zero(self):
        bits = np.ones(10, dtype=np.uint8)
        packed = pack_bits(bits)
        unpacked_full = unpack_bits(packed, 64)
        assert unpacked_full[:10].sum() == 10
        assert unpacked_full[10:].sum() == 0


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 255, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(popcount(words), [0, 1, 2, 8, 64])

    def test_total_matches_bit_sum(self, rng):
        bits = rng.integers(0, 2, size=(4, 200)).astype(np.uint8)
        packed = pack_bits(bits)
        np.testing.assert_array_equal(popcount_total(packed), bits.sum(axis=1))


class TestBinaryDotProducts:
    """One query through the batch kernel: the single-code path."""

    def test_and_popcount_matches_naive(self, rng):
        # One binary plane: the AND + popcount of Eq. 22.
        a = rng.integers(0, 2, size=(8, 96)).astype(np.uint8)
        b = rng.integers(0, 2, size=96).astype(np.uint8)
        expected = (a * b).sum(axis=1)
        result = binary_dot_uint_batch(pack_bits(a), pack_bits(b)[None, :])
        np.testing.assert_array_equal(result, expected[None, :])

    def test_and_popcount_word_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            binary_dot_uint_batch(
                np.zeros((2, 2), dtype=np.uint64), np.zeros((1, 3), dtype=np.uint64)
            )

    def test_binary_dot_uint_matches_naive(self, rng):
        n_bits = 4
        codes = rng.integers(0, 2, size=(10, 70)).astype(np.uint8)
        values = rng.integers(0, 2**n_bits, size=70).astype(np.uint64)
        expected = (codes * values[None, :]).sum(axis=1)
        planes = bitplanes_from_uint_batch(values[None, :], n_bits)
        result = binary_dot_uint_batch(pack_bits(codes), planes)
        np.testing.assert_array_equal(result, expected[None, :])

    def test_binary_dot_uint_word_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            binary_dot_uint_batch(
                np.zeros((2, 1), dtype=np.uint64), np.zeros((4, 2), dtype=np.uint64)
            )


class TestBinaryDotUintBatch:
    def test_matches_naive(self, rng):
        n_bits = 4
        codes = rng.integers(0, 2, size=(12, 70)).astype(np.uint8)
        values = rng.integers(0, 2**n_bits, size=(5, 70)).astype(np.uint64)
        expected = values.astype(np.int64) @ codes.T.astype(np.int64)
        planes = bitplanes_from_uint_batch(values, n_bits)
        result = binary_dot_uint_batch(pack_bits(codes), planes)
        np.testing.assert_array_equal(result, expected)

    def test_gemm_path_matches_popcount_path(self, rng):
        # 64 queries x 256 codes x 2 words crosses the GEMM dispatch
        # threshold; the result must still be the exact integer matrix.
        n_bits = 4
        codes = rng.integers(0, 2, size=(256, 128)).astype(np.uint8)
        values = rng.integers(0, 2**n_bits, size=(64, 128)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, n_bits)
        packed = pack_bits(codes)
        result = binary_dot_uint_batch(packed, planes)
        for i in (0, 31, 63):
            # One query alone stays below the GEMM threshold: popcount path.
            np.testing.assert_array_equal(
                result[i], binary_dot_uint_batch(packed, planes[i])[0]
            )

    def test_query_values_fast_path_matches(self, rng):
        n_bits = 4
        codes = rng.integers(0, 2, size=(256, 100)).astype(np.uint8)
        values = rng.integers(0, 2**n_bits, size=(64, 100)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, n_bits)
        packed = pack_bits(codes)
        np.testing.assert_array_equal(
            binary_dot_uint_batch(packed, planes, query_values=values),
            binary_dot_uint_batch(packed, planes),
        )

    def test_query_values_shape_mismatch(self, rng):
        codes = pack_bits(rng.integers(0, 2, size=(256, 128)).astype(np.uint8))
        values = rng.integers(0, 16, size=(64, 128)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, 4)
        with pytest.raises(DimensionMismatchError):
            binary_dot_uint_batch(codes, planes, query_values=values[:10])

    @pytest.mark.parametrize("n_codes", [4, 256], ids=["popcount-path", "gemm-path"])
    def test_query_values_rejects_1d_on_both_paths(self, rng, n_codes):
        codes = pack_bits(rng.integers(0, 2, size=(n_codes, 128)).astype(np.uint8))
        values = rng.integers(0, 16, size=(64, 128)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, 4)
        with pytest.raises(DimensionMismatchError):
            binary_dot_uint_batch(codes, planes, query_values=values[0])

    def test_wide_planes_stay_exact(self, rng):
        # Query values beyond 16 bits could overflow the float64 GEMM's
        # exactness margin, so workloads with wide bit-plane stacks must
        # take the popcount path and stay integer-exact even above the
        # GEMM dispatch threshold (64 * 512 * 1 = 32768 cells here).
        n_bits = 20
        codes = rng.integers(0, 2, size=(512, 64)).astype(np.uint8)
        values = rng.integers(0, 1 << n_bits, size=(64, 64)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, n_bits)
        packed = pack_bits(codes)
        result = binary_dot_uint_batch(packed, planes)
        expected = values.astype(np.int64) @ codes.T.astype(np.int64)
        for i in (0, 63):
            np.testing.assert_array_equal(result[i], expected[i])

    def test_gemm_code_chunking_matches(self, rng, monkeypatch):
        import repro.core.bitops as bitops_module

        codes = pack_bits(rng.integers(0, 2, size=(300, 128)).astype(np.uint8))
        values = rng.integers(0, 16, size=(40, 128)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, 4)
        full = binary_dot_uint_batch(codes, planes)
        # Force several code chunks within the GEMM path.
        monkeypatch.setattr(bitops_module, "_GEMM_MAX_CODE_CELLS", 128 * 70)
        chunked = binary_dot_uint_batch(codes, planes)
        np.testing.assert_array_equal(full, chunked)

    def test_single_query_planes_promoted(self, rng):
        n_bits = 3
        codes = rng.integers(0, 2, size=(6, 64)).astype(np.uint8)
        values = rng.integers(0, 2**n_bits, size=64).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values[None, :], n_bits)[0]
        packed = pack_bits(codes)
        result = binary_dot_uint_batch(packed, planes)
        assert result.shape == (1, 6)
        np.testing.assert_array_equal(
            result[0], codes.astype(np.int64) @ values.astype(np.int64)
        )

    def test_empty_inputs(self):
        codes = np.zeros((0, 1), dtype=np.uint64)
        planes = np.zeros((3, 2, 1), dtype=np.uint64)
        assert binary_dot_uint_batch(codes, planes).shape == (3, 0)
        assert binary_dot_uint_batch(
            np.zeros((4, 1), dtype=np.uint64), np.zeros((0, 2, 1), dtype=np.uint64)
        ).shape == (0, 4)

    def test_word_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            binary_dot_uint_batch(
                np.zeros((2, 1), dtype=np.uint64), np.zeros((3, 4, 2), dtype=np.uint64)
            )

    def test_inconsistent_operands_rejected(self):
        codes = np.zeros((5, 2), dtype=np.uint64)
        values = np.zeros((2, 100), dtype=np.uint64)
        for kwargs in (
            {},  # no query operand at all
            {"query_values": values, "segments": [2, 2]},  # runs miss a code
            {"query_values": values, "segments": [5]},  # one run, two queries
            {"query_values": values, "code_length": 130},  # a third word
            {"query_values": values, "bits": 2},  # one word per plane left
        ):
            with pytest.raises(DimensionMismatchError):
                binary_dot_uint_batch(codes, **kwargs)

    def test_bad_plane_rank(self):
        with pytest.raises(DimensionMismatchError):
            binary_dot_uint_batch(
                np.zeros((2, 1), dtype=np.uint64),
                np.zeros((2, 3, 4, 1), dtype=np.uint64),
            )


class TestBitplanes:
    def test_roundtrip_values(self, rng):
        values = rng.integers(0, 16, size=(3, 100)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, 4)
        assert planes.shape == (3, 4, 2)
        rebuilt = np.zeros((3, 100), dtype=np.uint64)
        for j in range(4):
            plane = unpack_bits(planes[:, j], 100).astype(np.uint64)
            rebuilt += plane << np.uint64(j)
        np.testing.assert_array_equal(rebuilt, values)

    def test_invalid_bit_count(self):
        with pytest.raises(InvalidParameterError):
            bitplanes_from_uint_batch(np.zeros((1, 4), dtype=np.uint64), 0)

    def test_batch_matches_per_row(self, rng):
        # A row's planes depend on that row alone.
        values = rng.integers(0, 16, size=(5, 100)).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values, 4)
        assert planes.shape == (5, 4, 2)
        for i in range(5):
            np.testing.assert_array_equal(
                planes[i], bitplanes_from_uint_batch(values[i : i + 1], 4)[0]
            )

    def test_batch_requires_2d(self):
        with pytest.raises(DimensionMismatchError):
            bitplanes_from_uint_batch(np.zeros(4, dtype=np.uint64), 2)

    def test_batch_value_overflow_raises(self):
        with pytest.raises(InvalidParameterError):
            bitplanes_from_uint_batch(np.array([[16]], dtype=np.uint64), 4)

    def test_batch_empty(self):
        planes = bitplanes_from_uint_batch(np.zeros((0, 70), dtype=np.uint64), 3)
        assert planes.shape == (0, 3, 2)


class TestLevelPlanes:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_plane_major_layout_and_roundtrip(self, rng, bits):
        levels = rng.integers(0, 1 << bits, size=(7, 130)).astype(np.uint8)
        packed = pack_level_planes(levels, bits)
        assert packed.shape == (7, bits * 3) and packed.dtype == np.uint64
        # Plane p holds bit p of every level, in words [3p, 3p + 3).
        for p in range(bits):
            np.testing.assert_array_equal(
                packed[:, 3 * p : 3 * p + 3], pack_bits((levels >> p) & 1)
            )
        np.testing.assert_array_equal(
            unpack_level_planes(packed, 130, bits), levels
        )

    def test_empty_rows(self):
        packed = pack_level_planes(np.zeros((0, 64), dtype=np.uint8), 4)
        assert packed.shape == (0, 4)
        assert level_sums(packed, 64, 4).shape == (0,)

    @pytest.mark.parametrize("length", [64, 130])
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_level_sums_ignore_padding_bits(self, rng, bits, length):
        levels = rng.integers(0, 1 << bits, size=(9, length)).astype(np.uint8)
        packed = pack_level_planes(levels, bits)
        if length % WORD_BITS:
            # Garbage past the code length in every plane's last word.
            words = packed.shape[1] // bits
            last = np.arange(words - 1, packed.shape[1], words)
            packed[:, last] |= np.uint64(0xFFFF) << np.uint64(length % WORD_BITS)
        sums = level_sums(packed, length, bits)
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums, levels.sum(axis=1))

    def test_out_of_range_levels_raise(self):
        with pytest.raises(InvalidParameterError):
            pack_level_planes(np.array([[0, 4]]), 2)
        with pytest.raises(InvalidParameterError):
            pack_level_planes(np.array([[0, -1]]), 2)
        with pytest.raises(InvalidParameterError):
            pack_level_planes(np.zeros((1, 4), dtype=np.uint8), 9)


class TestHammingDistance:
    def test_matches_naive(self, rng):
        a = rng.integers(0, 2, size=(6, 100)).astype(np.uint8)
        b = rng.integers(0, 2, size=100).astype(np.uint8)
        expected = (a != b).sum(axis=1)
        result = hamming_distance(pack_bits(a), pack_bits(b)[None, :])
        np.testing.assert_array_equal(result, expected)

    def test_zero_for_identical(self, rng):
        a = rng.integers(0, 2, size=(3, 64)).astype(np.uint8)
        packed = pack_bits(a)
        np.testing.assert_array_equal(hamming_distance(packed, packed), [0, 0, 0])

    def test_word_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming_distance(
                np.zeros((2, 1), dtype=np.uint64), np.zeros((2, 2), dtype=np.uint64)
            )


def test_word_bits_constant():
    assert WORD_BITS == 64
