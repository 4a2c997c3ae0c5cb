"""Plain reference for the error-bound re-ranking rule.

One straightforward formulation of what
:class:`repro.index.rerank.ErrorBoundReranker` computes, written for
reading rather than speed: a full stable sort of every candidate and a
Python heap, without the reranker's cut.  The reranker's suites
(``test_rerank.py``) and the arena-equivalence suite
(``test_arena_equivalence.py``) both compare ids, value bits and the
exact-computation count against it.

Everything works on *minimization keys*: distances as they are, similarity
scores negated (with the bounds swapped), as the reranker does internally.
"""

from __future__ import annotations

import heapq

import numpy as np


def reference_rerank(ids, est, opt, exact_key, k):
    """Error-bound re-ranking over minimization keys.

    ``ids`` are the candidates, ``est`` their estimated keys (the visit
    order), ``opt`` the smallest key each could truly have, and
    ``exact_key(selected_ids)`` the exact keys of the candidates a chunk
    selects (called once per chunk, as the reranker does, so BLAS sees the
    same rows).  Returns ``(ids, keys, n_exact)``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    est, opt = (np.asarray(a, dtype=np.float64) for a in (est, opt))
    if ids.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 0

    order = np.argsort(est, kind="stable")
    heap: list[float] = []  # negated k smallest exact keys so far
    computed: list[tuple[int, float]] = []  # (id, key) in visit order
    n_exact = 0
    chunk = max(64, k)
    for start in range(0, order.shape[0], chunk):
        block = order[start : start + chunk]
        threshold = -heap[0] if len(heap) >= k else np.inf
        selected = ids[block[opt[block] <= threshold]]
        if selected.shape[0] == 0:
            continue
        for vec_id, value in zip(selected.tolist(), exact_key(selected).tolist()):
            n_exact += 1
            computed.append((vec_id, value))
            if len(heap) < k:
                heapq.heappush(heap, -value)
            elif value < -heap[0]:
                heapq.heapreplace(heap, -value)

    if not computed:
        # Every bound was NaN: rank by the estimates.
        top = order[: min(k, order.shape[0])]
        return ids[top], est[top], n_exact
    best = sorted(computed, key=lambda item: item[1])[:k]  # stable: visit order
    return (
        np.asarray([i for i, _ in best], dtype=np.int64),
        np.asarray([v for _, v in best], dtype=np.float64),
        n_exact,
    )


def reference_rerank_l2(query, candidate_ids, estimate, flat_index, k):
    """:func:`reference_rerank` for squared L2 distances.

    Exact distances come from ``FlatIndex.distances``, the reranker's own
    arithmetic.
    """
    ids = np.asarray(candidate_ids, dtype=np.int64)
    if ids.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 0
    return reference_rerank(
        ids,
        estimate.distances,
        estimate.lower_bounds,
        lambda selected: flat_index.distances(query, selected),
        k,
    )
