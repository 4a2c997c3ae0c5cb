"""Micro-benchmarks of the distance-estimation kernels (supporting Table 1).

These are not tied to a single paper figure; they quantify the relative cost
of the two computation paths of :class:`repro.core.quantizer.RaBitQ` (float
reference, integer dot of the quantized query), of the two Sec. 3.3.2 kernels
for ``<x_b, q_u>`` on explicit operands (bit-plane popcount, 4-bit LUT
accumulation — identical integers) and of the two rotation implementations
(dense QR vs structured fast-Hadamard), mirroring the qualitative comparison
of Table 1 and the "hardware-aware" discussion of the paper's related-work
section.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bitops, lut
from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.core.rotation import FastHadamardRotation, QRRotation


@pytest.fixture(scope="module")
def kernel_setup():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4000, 128))
    query = rng.standard_normal(128)
    quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
    prepared = quantizer.prepare_query(query)
    return quantizer, prepared


@pytest.mark.parametrize("compute", ("float", "bitwise"))
def test_estimation_kernel(benchmark, kernel_setup, compute):
    """Distance estimation for 4000 codes with each computation path."""
    quantizer, prepared = kernel_setup
    result = benchmark(
        quantizer.estimate_distances, prepared, compute=compute
    )
    assert len(result) == 4000


@pytest.mark.parametrize("kernel", ("popcount", "lut"))
def test_integer_dot_kernel(benchmark, kernel_setup, kernel):
    """``<x_b, q_u>`` for 4000 codes: bit-plane popcount vs 4-bit LUTs.

    One query over 4000 codes is below the batch kernel's GEMM threshold,
    so ``binary_dot_uint_batch`` runs its popcount path here.
    """
    quantizer, prepared = kernel_setup
    codes = quantizer.arena.codes
    query = prepared.quantized
    planes = bitops.bitplanes_from_uint_batch(
        query.codes, quantizer.config.query_bits
    )
    popcount = bitops.binary_dot_uint_batch(codes, planes)[0]
    if kernel == "popcount":
        result = benchmark(bitops.binary_dot_uint_batch, codes, planes)[0]
    else:
        segments = lut.split_into_segments(
            bitops.unpack_bits(codes, quantizer.code_length)
        )
        luts = lut.build_query_luts(query.codes[0])
        result = benchmark(lut.lut_accumulate, segments, luts)
    np.testing.assert_array_equal(result, popcount)


def test_query_preparation(benchmark, kernel_setup):
    """Per-query preparation cost (normalize + rotate + quantize)."""
    quantizer, _ = kernel_setup
    query = np.random.default_rng(1).standard_normal(128)
    prepared = benchmark(quantizer.prepare_query, query)
    assert prepared.code_length == 128


@pytest.mark.parametrize("kind", ("qr", "hadamard"))
def test_rotation_kernel(benchmark, kind):
    """Applying the inverse rotation to a batch of 1000 vectors."""
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((1000, 256))
    rotation = (
        QRRotation(256, 0) if kind == "qr" else FastHadamardRotation(256, 0)
    )
    rotated = benchmark(rotation.apply_inverse, vectors)
    assert rotated.shape == (1000, 256)


def test_index_phase_encoding(benchmark):
    """Index-phase cost of encoding 2000 vectors of D=128."""
    rng = np.random.default_rng(2)
    data = rng.standard_normal((2000, 128))

    def build():
        return RaBitQ(RaBitQConfig(seed=0)).fit(data)

    quantizer = benchmark(build)
    assert quantizer.arena.n_rows == 2000
