"""Tests for repro.core.codebook."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitops import pack_bits
from repro.core.codebook import (
    bits_to_signed,
    code_popcounts,
    decode_codes,
    signed_to_bits,
)
from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ, encode_rows
from repro.core.rotation import QRRotation
from repro.exceptions import InvalidParameterError


class TestSignedToBits:
    def test_positive_maps_to_one(self):
        np.testing.assert_array_equal(
            signed_to_bits(np.array([0.5, -0.5, 0.0])), [1, 0, 1]
        )

    def test_dtype(self):
        assert signed_to_bits(np.zeros(4)).dtype == np.uint8

    def test_matrix_input(self, rng):
        mat = rng.standard_normal((3, 8))
        bits = signed_to_bits(mat)
        assert bits.shape == (3, 8)
        np.testing.assert_array_equal(bits, (mat >= 0).astype(np.uint8))


class TestBitsToSigned:
    def test_values(self):
        signed = bits_to_signed(np.array([1, 0, 1, 1]), 4)
        np.testing.assert_allclose(signed, [0.5, -0.5, 0.5, 0.5])

    def test_default_code_length(self):
        signed = bits_to_signed(np.ones(16))
        np.testing.assert_allclose(signed, 0.25)

    def test_unit_norm(self, rng):
        bits = rng.integers(0, 2, size=64)
        signed = bits_to_signed(bits, 64)
        assert np.linalg.norm(signed) == pytest.approx(1.0)

    def test_invalid_code_length(self):
        with pytest.raises(InvalidParameterError):
            bits_to_signed(np.ones(4), 0)

    def test_roundtrip_with_signed_to_bits(self, rng):
        bits = rng.integers(0, 2, size=(5, 32)).astype(np.uint8)
        np.testing.assert_array_equal(signed_to_bits(bits_to_signed(bits, 32)), bits)


class TestEncodeDecode:
    def test_one_bit_levels_are_sign_bits(self, rng):
        # At B = 1 the encoder's levels are the sign pattern of P^-1 o.
        rotation = QRRotation(70, 0)
        data = rng.standard_normal((4, 70))
        levels, sums, _, _, rescales = encode_rows(
            data, np.zeros(70), rotation, 70, 1
        )
        units = data / np.linalg.norm(data, axis=1)[:, None]
        rotated = rotation.apply_inverse(units)
        np.testing.assert_array_equal(levels, (rotated >= 0).astype(np.uint8))
        np.testing.assert_array_equal(sums, code_popcounts(levels))
        assert rescales is None

    def test_decode_produces_unit_vectors(self, rng):
        rotated = rng.standard_normal((4, 64))
        packed = pack_bits(signed_to_bits(rotated))
        decoded = decode_codes(packed, 64)
        np.testing.assert_allclose(np.linalg.norm(decoded, axis=1), 1.0)

    def test_decode_signs_match_input(self, rng):
        rotated = rng.standard_normal((4, 64))
        decoded = decode_codes(pack_bits(signed_to_bits(rotated)), 64)
        np.testing.assert_array_equal(np.sign(decoded), np.sign(np.where(rotated >= 0, 1.0, -1.0)))

    def test_reconstruct_rotates_decoded_codes(self, rng):
        # RaBitQ.reconstruct is o_bar = P x_bar of the stored codes.
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(rng.standard_normal((3, 32)))
        decoded = decode_codes(quantizer.arena.codes, quantizer.code_length)
        reconstructed = quantizer.reconstruct()
        np.testing.assert_array_equal(
            reconstructed, quantizer.rotation.apply(decoded)
        )
        np.testing.assert_allclose(
            quantizer.reconstruct([2, 0]), reconstructed[[2, 0]], atol=1e-12
        )
        # Rotation preserves unit norms.
        np.testing.assert_allclose(np.linalg.norm(reconstructed, axis=1), 1.0)


class TestCodePopcounts:
    def test_matches_sum(self, rng):
        bits = rng.integers(0, 2, size=(6, 50))
        np.testing.assert_array_equal(code_popcounts(bits), bits.sum(axis=1))

    def test_single_vector(self):
        assert code_popcounts(np.array([1, 1, 0, 1])) == 3
