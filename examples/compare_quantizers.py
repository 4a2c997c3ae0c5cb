"""Compare all implemented quantizers on one dataset.

Prints, for every quantization method in the library (RaBitQ, PQ, OPQ,
LSQ-style additive quantization, SQ8 and signed random projections), the
code size, the index-phase time and the average /
maximum relative error of its distance estimates — a compact, quantitative
version of the paper's Table 1 plus the Fig. 3 accuracy comparison.

Run with:  python examples/compare_quantizers.py [dataset]
where ``dataset`` is one of the registry names (default: sift).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import RaBitQ, RaBitQConfig
from repro.baselines import (
    AdditiveQuantizer,
    OptimizedProductQuantizer,
    ProductQuantizer,
    ScalarQuantizer,
    SignedRandomProjection,
)
from repro.datasets import available_datasets, load_dataset
from repro.metrics import average_relative_error, max_relative_error
from repro.substrates.linalg import pairwise_squared_distances
from _example_scale import scaled as _scaled


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sift"
    if name not in available_datasets():
        raise SystemExit(f"unknown dataset {name!r}; choose from {available_datasets()}")

    print(f"Loading dataset {name!r} ...")
    dataset = load_dataset(name, n_data=_scaled(4000), n_queries=10, rng=0)
    dim = dataset.dim
    queries = dataset.queries
    true = pairwise_squared_distances(queries, dataset.data)

    def pq_segments(bits_per_code: int, bits_per_segment: int) -> int:
        segments = max(1, bits_per_code // bits_per_segment)
        while dim % segments != 0 and segments > 1:
            segments -= 1
        return segments

    methods = [
        ("RaBitQ (D bits)", RaBitQ(RaBitQConfig(seed=0))),
        ("PQ x4 (2D bits)", ProductQuantizer(pq_segments(2 * dim, 4), 4, rng=0)),
        ("OPQ x4 (2D bits)",
         OptimizedProductQuantizer(pq_segments(2 * dim, 4), 4, n_iterations=2, rng=0)),
        ("LSQ-style AQ", AdditiveQuantizer(8, 8, rng=0)),
        ("SQ8", ScalarQuantizer(8)),
        ("SRP (D bits)", SignedRandomProjection(dim, rng=0)),
    ]

    header = (f"{'method':<20} {'code bits':>9} {'fit time':>9} "
              f"{'avg rel err':>12} {'max rel err':>12}")
    print("\n" + header)
    print("-" * len(header))

    for label, quantizer in methods:
        start = time.perf_counter()
        quantizer.fit(dataset.data)
        fit_time = time.perf_counter() - start
        if isinstance(quantizer, RaBitQ):
            estimates = quantizer.estimate_distances_batch(queries).distances
            code_bits = quantizer.code_length
        else:
            estimates = np.vstack(
                [quantizer.estimate_distances(q) for q in queries]
            )
            code_bits = quantizer.code_size_bits()
        avg_err = average_relative_error(estimates.ravel(), true.ravel())
        max_err = max_relative_error(estimates.ravel(), true.ravel())
        print(f"{label:<20} {code_bits:>9d} {fit_time:>8.2f}s "
              f"{avg_err * 100:>11.2f}% {max_err * 100:>11.2f}%")

    print("\nRaBitQ uses D-bit codes (half of the PQ/OPQ default) and its error "
          "bound holds for any data distribution; try the 'msong' dataset to "
          "see the PQ-family methods degrade.")


if __name__ == "__main__":
    main()
