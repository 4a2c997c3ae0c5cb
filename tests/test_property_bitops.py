"""Property-based tests (hypothesis) for the bit-level kernels.

These invariants underpin the correctness of the paper's efficient
implementations: the packed bit-string kernels and the 4-bit LUT path must
compute exactly the same integer inner products as a naive dense evaluation,
for every possible input.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bitops import (
    binary_dot_uint_batch,
    bitplanes_from_uint_batch,
    hamming_distance,
    pack_bits,
    popcount_total,
    unpack_bits,
)
from repro.core.lut import build_query_luts, lut_accumulate, split_into_segments

# Keep the generated sizes modest so the whole property suite stays fast.
_SETTINGS = dict(max_examples=60, deadline=None)


bit_matrices = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 200)),
    elements=st.integers(0, 1),
)

bit_vectors = hnp.arrays(
    dtype=np.uint8,
    shape=st.integers(1, 200),
    elements=st.integers(0, 1),
)


class TestPackUnpackProperties:
    @given(bits=bit_matrices)
    @settings(**_SETTINGS)
    def test_roundtrip(self, bits):
        packed = pack_bits(bits)
        np.testing.assert_array_equal(unpack_bits(packed, bits.shape[-1]), bits)

    @given(bits=bit_matrices)
    @settings(**_SETTINGS)
    def test_popcount_matches_sum(self, bits):
        np.testing.assert_array_equal(
            popcount_total(pack_bits(bits)), bits.sum(axis=-1)
        )

    @given(bits=bit_vectors)
    @settings(**_SETTINGS)
    def test_word_count(self, bits):
        packed = pack_bits(bits)
        assert packed.shape[-1] == (bits.shape[-1] + 63) // 64


class TestBinaryDotProperties:
    @given(
        data=st.data(),
        n_codes=st.integers(1, 5),
        length=st.integers(1, 150),
        bits=st.integers(1, 8),
    )
    @settings(**_SETTINGS)
    def test_bitplane_dot_matches_naive(self, data, n_codes, length, bits):
        codes = data.draw(
            hnp.arrays(np.uint8, (n_codes, length), elements=st.integers(0, 1))
        )
        values = data.draw(
            hnp.arrays(np.int64, length, elements=st.integers(0, 2**bits - 1))
        ).astype(np.uint64)
        expected = (codes.astype(np.int64) * values.astype(np.int64)).sum(axis=1)
        planes = bitplanes_from_uint_batch(values[None, :], bits)
        result = binary_dot_uint_batch(pack_bits(codes), planes)[0]
        np.testing.assert_array_equal(result, expected)

    @given(data=st.data(), n=st.integers(1, 5), length=st.integers(1, 120))
    @settings(**_SETTINGS)
    def test_hamming_symmetry_and_bounds(self, data, n, length):
        a = data.draw(hnp.arrays(np.uint8, (n, length), elements=st.integers(0, 1)))
        b = data.draw(hnp.arrays(np.uint8, (n, length), elements=st.integers(0, 1)))
        packed_a, packed_b = pack_bits(a), pack_bits(b)
        forward = hamming_distance(packed_a, packed_b)
        backward = hamming_distance(packed_b, packed_a)
        np.testing.assert_array_equal(forward, backward)
        assert (forward >= 0).all() and (forward <= length).all()


class TestLutProperties:
    @given(
        data=st.data(),
        n_codes=st.integers(1, 5),
        n_segments=st.integers(1, 30),
    )
    @settings(**_SETTINGS)
    def test_lut_path_matches_dense_dot(self, data, n_codes, n_segments):
        length = 4 * n_segments
        codes = data.draw(
            hnp.arrays(np.uint8, (n_codes, length), elements=st.integers(0, 1))
        )
        query = data.draw(
            hnp.arrays(np.int64, length, elements=st.integers(0, 15))
        ).astype(np.float64)
        expected = codes.astype(np.float64) @ query
        segments = split_into_segments(codes)
        luts = build_query_luts(query)
        np.testing.assert_allclose(lut_accumulate(segments, luts), expected)

    @given(
        data=st.data(),
        n_codes=st.integers(1, 4),
        n_segments=st.integers(1, 20),
        bits=st.integers(1, 16),
    )
    @settings(**_SETTINGS)
    def test_lut_and_bitwise_paths_agree(self, data, n_codes, n_segments, bits):
        # The LUT path must reproduce the packed bit-plane kernel *exactly*
        # (bit for bit, not approximately) for every supported B_q.
        length = 4 * n_segments
        codes = data.draw(
            hnp.arrays(np.uint8, (n_codes, length), elements=st.integers(0, 1))
        )
        values = data.draw(
            hnp.arrays(np.int64, length, elements=st.integers(0, 2**bits - 1))
        ).astype(np.uint64)
        planes = bitplanes_from_uint_batch(values[None, :], bits)
        bitwise = binary_dot_uint_batch(pack_bits(codes), planes)[0]
        lut_result = lut_accumulate(
            split_into_segments(codes), build_query_luts(values.astype(np.float64))
        )
        np.testing.assert_array_equal(lut_result, bitwise.astype(np.float64))
