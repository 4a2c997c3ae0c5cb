"""Index structures for in-memory ANN search.

* :mod:`repro.index.flat` — exact brute-force index (ground truth / re-ranking).
* :mod:`repro.index.ivf` — inverted-file (IVF) coarse index (Sec. 4 substrate).
* :mod:`repro.index.hnsw` — hierarchical navigable small-world graph baseline.
* :mod:`repro.index.rerank` — re-ranking strategies (error-bound based and
  fixed-candidate-count).
* :mod:`repro.index.arena` — contiguous cluster-grouped code arena backing
  the searcher's fused estimation hot path.
* :mod:`repro.index.searcher` — IVF + quantizer ANN pipelines
  (IVF-RaBitQ and IVF-PQ/OPQ) used by the Fig. 4 experiments.
"""

from repro.index.arena import CodeArena
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFIndex
from repro.index.rerank import (
    ErrorBoundReranker,
    NoReranker,
    TopCandidateReranker,
)
from repro.index.searcher import (
    BatchSearchResult,
    IVFQuantizedSearcher,
    SearchResult,
)

__all__ = [
    "CodeArena",
    "FlatIndex",
    "IVFIndex",
    "HNSWIndex",
    "ErrorBoundReranker",
    "TopCandidateReranker",
    "NoReranker",
    "IVFQuantizedSearcher",
    "SearchResult",
    "BatchSearchResult",
]
