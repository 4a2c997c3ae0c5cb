"""RaBitQ core: the paper's primary contribution.

The sub-modules map directly onto the sections of the paper:

* :mod:`repro.core.rotation` — random orthogonal transformations (Sec. 3.1.2).
* :mod:`repro.core.codebook` — the conceptual bi-valued codebook and the
  bit-string representation of codes (Sec. 3.1.2–3.1.3).
* :mod:`repro.core.bitops` — packed bit-string kernels: pack / unpack and
  the one integer-dot kernel ``binary_dot_uint_batch`` on packed codes of
  any width (bit-plane popcount for small workloads, unpack + BLAS for
  large ones; Sec. 3.3.2).
* :mod:`repro.core.lut` — 4-bit look-up-table accumulation mirroring the
  SIMD fast-scan layout (Sec. 3.3.2 batch path), kept as a benchmarked
  reproduction; no estimator calls it.
* :mod:`repro.core.query` — randomized scalar quantization of the rotated
  query vector (Sec. 3.3.1).
* :mod:`repro.core.estimator` — the unbiased estimator and its error bound
  (Sec. 3.2), as the textbook reference and as the fused kernels every
  query path runs.
* :mod:`repro.core.metric` — the served metrics (squared L2, inner
  product, cosine) and their centroid decomposition.
* :mod:`repro.core.quantizer` — the user-facing :class:`RaBitQ` quantizer
  tying everything together (Algorithm 1 and 2): the fused pipeline on one
  centroid, for every metric (``RaBitQ(config, metric=...)``).
* :mod:`repro.core.theory` — closed-form theoretical quantities used in the
  verification experiments (Appendix B).
"""

from repro.core.config import RaBitQConfig
from repro.core.codebook import bits_to_signed, signed_to_bits
from repro.core.estimator import (
    DistanceEstimate,
    confidence_interval_halfwidth,
    estimate_inner_product,
)
from repro.core.quantizer import QuantizedQueryBatch, RaBitQ
from repro.core.rotation import (
    FastHadamardRotation,
    QRRotation,
    Rotation,
    sample_orthogonal_matrix,
)
from repro.core.theory import (
    error_bound_epsilon,
    expected_alignment,
    failure_probability_bound,
)

__all__ = [
    "RaBitQ",
    "RaBitQConfig",
    "QuantizedQueryBatch",
    "DistanceEstimate",
    "estimate_inner_product",
    "confidence_interval_halfwidth",
    "Rotation",
    "QRRotation",
    "FastHadamardRotation",
    "sample_orthogonal_matrix",
    "signed_to_bits",
    "bits_to_signed",
    "expected_alignment",
    "error_bound_epsilon",
    "failure_probability_bound",
]
