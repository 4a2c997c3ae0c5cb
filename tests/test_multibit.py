"""Behavioral tests for multi-bit (extended) RaBitQ codes.

``bits = B > 1`` spends ``B`` bits per dimension: scalar-quantized residual
magnitudes layered over the sign bits, stored as ``B`` packed bit-planes,
with a per-code rescale factor appended to the fused constant matrix.  This
suite pins the contracts the width parameter introduces:

* ``bits = 1`` is *the* binary construction — explicitly passing it changes
  nothing, byte for byte (the deeper stream-identity gate lives in
  ``tests/test_l2_stream_gate.py``);
* more bits means strictly better reconstructions and tighter estimates;
* the batched search path stays bit-identical to the sequential one at
  every width;
* the fast-scan LUT modes (binary by design) refuse multi-bit codes with a
  typed error at construction and at property-assignment time;
* memory accounting (the arena's ``memory_bytes`` and code bytes,
  ``compression_ratio``) scales with the width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SUPPORTED_CODE_BITS, RaBitQConfig
from repro.core.estimator import CONST_ALIGN, CONST_POPCOUNT, n_consts_for
from repro.core.quantizer import RaBitQ
from repro.exceptions import InvalidParameterError
from repro.index.searcher import IVFQuantizedSearcher

ALL_BITS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((400, 48))
    queries = rng.standard_normal((6, 48))
    return data, queries


def _fit(data, bits, seed=5):
    return RaBitQ(RaBitQConfig(seed=seed, bits=bits)).fit(data)


class TestConfig:
    @pytest.mark.parametrize("bits", [0, 3, 5, 16, -1])
    def test_unsupported_widths_rejected(self, bits):
        with pytest.raises(InvalidParameterError, match="bits"):
            RaBitQConfig(bits=bits)

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_supported_widths_accepted(self, bits):
        assert RaBitQConfig(bits=bits).bits == bits
        assert bits in SUPPORTED_CODE_BITS


class TestQuantizer:
    def test_explicit_one_bit_is_the_default_construction(self, corpus):
        data, _ = corpus
        implicit = RaBitQ(RaBitQConfig(seed=5)).fit(data)
        explicit = _fit(data, 1)
        np.testing.assert_array_equal(implicit.arena.codes, explicit.arena.codes)
        np.testing.assert_array_equal(
            implicit.arena.cluster_consts(0)[CONST_POPCOUNT],
            explicit.arena.cluster_consts(0)[CONST_POPCOUNT],
        )
        np.testing.assert_array_equal(
            implicit.arena.cluster_consts(0)[CONST_ALIGN],
            explicit.arena.cluster_consts(0)[CONST_ALIGN],
        )
        assert explicit.arena.bits == 1
        # No rescale row: the binary constants layout.
        assert explicit.arena.n_consts == n_consts_for("l2", 1)

    def test_reconstruction_error_decreases_with_bits(self, corpus):
        data, _ = corpus
        errors = []
        for bits in ALL_BITS:
            quantizer = _fit(data, bits)
            # reconstruct() returns padded rows; the tail coordinates
            # approximate the zero padding.
            approx = quantizer.reconstruct()[:, : data.shape[1]]
            errors.append(float(((approx - data) ** 2).sum()))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < coarse

    def test_estimates_tighten_with_bits(self, corpus):
        data, queries = corpus
        exact = ((data[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2)
        mean_errors = []
        for bits in ALL_BITS:
            estimate = _fit(data, bits).estimate_distances_batch(queries)
            relative = np.abs(estimate.distances - exact) / exact
            mean_errors.append(float(relative.mean()))
        # B=1 -> B=2 -> B=4 each cut the estimation error substantially;
        # by B=8 the scalar residual is already near float resolution, so
        # only monotonicity is asserted on the last step.
        assert mean_errors[1] < 0.6 * mean_errors[0]
        assert mean_errors[2] < 0.6 * mean_errors[1]
        assert mean_errors[3] < mean_errors[2]

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_bounds_bracket_estimates_and_cover_truth(self, corpus, bits):
        data, queries = corpus
        quantizer = _fit(data, bits)
        estimate = quantizer.estimate_distances(queries[0])
        exact = ((data - queries[0]) ** 2).sum(axis=1)
        assert np.all(estimate.lower_bounds <= estimate.distances + 1e-12)
        assert np.all(estimate.distances <= estimate.upper_bounds + 1e-12)
        covered = (
            (exact >= estimate.lower_bounds) & (exact <= estimate.upper_bounds)
        ).mean()
        assert covered >= 0.85

    def test_memory_accounting_scales_with_bits(self, corpus):
        data, _ = corpus
        one = _fit(data, 1)
        four = _fit(data, 4)
        assert four.arena.codes.nbytes == 4 * one.arena.codes.nbytes
        assert four.arena.memory_bytes() > one.arena.memory_bytes()
        # Compression counts the packed code bytes, so the ratio shrinks
        # by the width (the shared constant-size metadata aside).
        assert four.compression_ratio() == pytest.approx(
            one.compression_ratio() / 4
        )


class TestSearcher:
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_batch_identical_to_sequential(self, corpus, bits):
        data, queries = corpus

        def build():
            return IVFQuantizedSearcher(
                "rabitq",
                n_clusters=8,
                rabitq_config=RaBitQConfig(seed=3, bits=bits),
                rng=7,
            ).fit(data)

        batch = build().search_batch(queries, 5, nprobe=4)
        searcher = build()
        sequential = [searcher.search(q, 5, nprobe=4) for q in queries]
        for got, want in zip(batch, sequential):
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.distances, want.distances)
            assert got.n_exact == want.n_exact

    def test_bits_property_and_arena_width(self, corpus):
        data, _ = corpus
        searcher = IVFQuantizedSearcher(
            "rabitq", n_clusters=8, bits=4, rng=1
        ).fit(data)
        assert searcher.bits == 4
        # Four packed bit-planes per code, plus the trailing rescale row.
        arena = searcher.arena
        assert arena.codes.dtype == np.uint64
        assert arena.codes.shape[1] == 4 * -(-arena.code_length // 64)
        levels = arena.cluster_bits(int(np.argmax(arena.sizes)))
        assert levels.dtype == np.uint8 and 1 < int(levels.max()) <= 15
        assert arena.n_consts == n_consts_for("l2", 4)
        default = IVFQuantizedSearcher("rabitq", n_clusters=8, rng=1)
        assert default.bits == 1

    def test_wider_codes_need_no_more_reranks(self, corpus):
        data, queries = corpus

        def n_exact(bits):
            searcher = IVFQuantizedSearcher(
                "rabitq",
                n_clusters=8,
                rabitq_config=RaBitQConfig(seed=0, bits=bits),
                rng=0,
            ).fit(data)
            return sum(
                searcher.search(q, 10, nprobe=4).n_exact for q in queries
            )

        # Tighter estimates -> tighter error bounds -> the bound-driven
        # re-ranker escalates no more (in practice: fewer) candidates.
        assert n_exact(4) <= n_exact(1)

