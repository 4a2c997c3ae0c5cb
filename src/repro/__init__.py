"""repro — a reproduction of RaBitQ (Gao & Long, SIGMOD 2024).

RaBitQ quantizes ``D``-dimensional vectors into ``D``-bit strings and
estimates squared Euclidean distances with an unbiased estimator whose error
is bounded by ``O(1/sqrt(D))`` with high probability.  This package
implements the quantizer, the IVF-RaBitQ searcher, its baselines (PQ, OPQ,
LSQ-style additive quantization, scalar quantization, signed random
projections, the HNSW graph index), synthetic datasets, evaluation metrics,
and an experiment harness that regenerates every table and figure of the
paper's evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import RaBitQ, RaBitQConfig
>>> rng = np.random.default_rng(0)
>>> data = rng.standard_normal((1000, 128))
>>> quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
>>> estimate = quantizer.estimate_distances(rng.standard_normal(128))
>>> estimate.distances.shape
(1000,)
"""

from repro.core.config import RaBitQConfig
from repro.core.estimator import DistanceEstimate
from repro.core.metric import COSINE, IP, L2, METRICS, Metric, resolve_metric
from repro.core.quantizer import (
    QuantizedDataset,
    QuantizedQueryBatch,
    RaBitQ,
)
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
    PersistenceError,
    ReproError,
)
from repro.io import (
    load_rabitq,
    load_searcher,
    save_rabitq,
    save_searcher,
)

__version__ = "1.0.0"

__all__ = [
    "RaBitQ",
    "RaBitQConfig",
    "DistanceEstimate",
    "QuantizedDataset",
    "QuantizedQueryBatch",
    "Metric",
    "resolve_metric",
    "METRICS",
    "L2",
    "IP",
    "COSINE",
    "save_rabitq",
    "load_rabitq",
    "save_searcher",
    "load_searcher",
    "ReproError",
    "NotFittedError",
    "DimensionMismatchError",
    "InvalidParameterError",
    "EmptyDatasetError",
    "PersistenceError",
    "__version__",
]
