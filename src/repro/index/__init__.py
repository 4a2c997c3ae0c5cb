"""Index structures of the IVF-RaBitQ serving path.

* :mod:`repro.index.flat` — exact brute-force index (ground truth / re-ranking).
* :mod:`repro.index.ivf` — inverted-file (IVF) coarse index (Sec. 4 substrate).
* :mod:`repro.index.rerank` — re-ranking strategies (error-bound based and
  fixed-candidate-count).
* :mod:`repro.index.arena` — contiguous cluster-grouped code arena backing
  the searcher's fused estimation hot path.
* :mod:`repro.index.searcher` — the IVF-RaBitQ ANN searcher.

Fig. 4's comparison baselines live elsewhere: the HNSW graph index in
:mod:`repro.baselines.hnsw`, the IVF-PQ / IVF-OPQ pipeline in
:func:`repro.experiments.ann_search.ivf_baseline_search`.
"""

from repro.index.arena import CodeArena
from repro.index.flat import FlatIndex
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
    "ErrorBoundReranker",
    "TopCandidateReranker",
    "NoReranker",
    "IVFQuantizedSearcher",
    "SearchResult",
    "BatchSearchResult",
]
