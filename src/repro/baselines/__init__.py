"""Baseline methods compared against RaBitQ in the paper.

All quantization baselines expose the same small interface so that the
experiment harness can swap them in and out:

* ``fit(data)``                 — train the codebooks on raw vectors,
* ``encode(data)``              — produce quantization codes,
* ``estimate_distances(query)`` — estimated squared distances to every
  encoded vector (asymmetric distance computation).

Implemented baselines:

* :class:`~repro.baselines.pq.ProductQuantizer` — PQ (Jegou et al., 2010),
  with both the ``k = 8`` RAM-LUT variant and the ``k = 4`` fast-scan-style
  variant.
* :class:`~repro.baselines.opq.OptimizedProductQuantizer` — OPQ (Ge et al.,
  2013), PQ preceded by a learned orthogonal rotation.
* :class:`~repro.baselines.lsq.AdditiveQuantizer` — an LSQ-style additive
  quantizer with ICM encoding (Martinez et al., 2016/2018).
* :class:`~repro.baselines.scalar.ScalarQuantizer` — per-dimension uniform
  scalar quantization (SQ8-style).
* :class:`~repro.baselines.srp.SignedRandomProjection` — sign-random-
  projection sketches for angular similarity (related work, Sec. 6).

The graph-index baseline of Fig. 4:

* :class:`~repro.baselines.hnsw.HNSWIndex` — HNSW (Malkov & Yashunin, 2020).
"""

from repro.baselines.hnsw import HNSWIndex
from repro.baselines.lsq import AdditiveQuantizer
from repro.baselines.opq import OptimizedProductQuantizer
from repro.baselines.pq import ProductQuantizer
from repro.baselines.scalar import ScalarQuantizer
from repro.baselines.srp import SignedRandomProjection

__all__ = [
    "ProductQuantizer",
    "OptimizedProductQuantizer",
    "AdditiveQuantizer",
    "ScalarQuantizer",
    "SignedRandomProjection",
    "HNSWIndex",
]
