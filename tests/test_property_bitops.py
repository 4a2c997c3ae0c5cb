"""Property-based tests (hypothesis) for the bit-level kernels.

These invariants underpin the correctness of the paper's efficient
implementations: the packed bit-string kernels and the 4-bit LUT path must
compute exactly the same integer inner products as a naive dense evaluation,
for every possible input.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.bitops as bitops
from repro.core.bitops import (
    binary_dot_uint_batch,
    bitplanes_from_uint_batch,
    hamming_distance,
    pack_bits,
    pack_level_planes,
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


#: Strategy thresholds that force each of the kernel's two strategies.
STRATEGIES = {"popcount": float("inf"), "unpack": 0.0}


def _with_padding_garbage(words, code_length, rng):
    """``words`` (``(..., planes * n_words)`` or ``(..., planes, n_words)``
    packed planes) with random bits set past ``code_length`` in the last
    word of every plane."""
    n_words = -(-code_length // 64)
    tail = code_length % 64
    out = words.copy()
    if tail:
        planes = out.reshape(out.shape[:-1] + (out.shape[-1] // n_words, n_words))
        garbage = rng.integers(0, 2**63, size=planes.shape[:-1], dtype=np.uint64)
        planes[..., -1] |= garbage & ~np.uint64((1 << tail) - 1)
    return out


def _kernel(strategy, codes, planes, values, bits, code_length, segments=None):
    with mock.patch.object(
        bitops, "_POPCOUNT_CELLS_PER_UNPACKED", STRATEGIES[strategy]
    ):
        return binary_dot_uint_batch(
            codes,
            planes,
            query_values=values,
            bits=bits,
            code_length=code_length,
            segments=segments,
        )


class TestIntegerDotKernel:
    """Both strategies, in cross and paired form, equal the dense integer
    dot ``levels @ q_u`` at every code width, whatever the padding holds."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @given(
        bits=st.sampled_from([1, 2, 4, 8]),
        query_bits=st.integers(1, 16),
        code_length=st.sampled_from([1, 63, 64, 65, 130]),
        run_lengths=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**_SETTINGS)
    def test_strategies_match_dense_dot(
        self, strategy, bits, query_bits, code_length, run_lengths, seed
    ):
        rng = np.random.default_rng(seed)
        n_queries, n_codes = len(run_lengths), sum(run_lengths)
        levels = rng.integers(0, 1 << bits, size=(n_codes, code_length))
        values = rng.integers(0, 1 << query_bits, size=(n_queries, code_length))
        codes = _with_padding_garbage(
            pack_level_planes(levels, bits), code_length, rng
        )
        planes = _with_padding_garbage(
            bitplanes_from_uint_batch(values, query_bits), code_length, rng
        )
        queries = values.astype(np.uint64)
        cross = _kernel(strategy, codes, planes, queries, bits, code_length)
        np.testing.assert_array_equal(cross, values @ levels.T)
        paired = _kernel(
            strategy, codes, planes, queries, bits, code_length, run_lengths
        )
        owner = np.repeat(np.arange(n_queries), run_lengths)
        expected = np.einsum("ij,ij->i", levels, values[owner])
        np.testing.assert_array_equal(paired, expected)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_padding_garbage_is_ignored(self, strategy):
        # Every padding bit set in both operands: the result only stays the
        # dense dot if the kernel clears bits past the code length.
        code_length, bits = 65, 2
        levels = np.full((3, code_length), 3)
        values = np.full((2, code_length), 15)
        codes = pack_level_planes(levels, bits)
        codes.reshape(3, bits, 2)[..., -1] = np.iinfo(np.uint64).max
        planes = bitplanes_from_uint_batch(values, 4)
        planes[..., -1] = np.iinfo(np.uint64).max
        queries = values.astype(np.uint64)
        got = _kernel(strategy, codes, planes, queries, bits, code_length)
        np.testing.assert_array_equal(got, values @ levels.T)
