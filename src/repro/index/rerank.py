"""Re-ranking strategies (Section 4 of the paper), metric-generic.

After estimated distances (or similarity scores) have been computed for the
candidates of the probed IVF clusters, a re-ranking step decides which
candidates get their *exact* metric value computed.  The paper contrasts
two strategies:

* :class:`TopCandidateReranker` — the conventional PQ-style rule: re-rank a
  fixed number of candidates with the best estimates.  The count is a
  dataset-dependent hyper-parameter that is hard to tune.
* :class:`ErrorBoundReranker` — RaBitQ's rule: maintain the exact value of
  the best candidate found so far and compute the exact value of a new
  candidate only if the *optimistic* end of its confidence interval (lower
  bound for distances, upper bound for similarities) does not already lose
  to that threshold.  No tuning is required because the bound holds with
  (very) high probability by Theorem 3.2.
* :class:`NoReranker` — returns the candidates ranked purely by estimated
  value (the "w/o re-ranking" ablation of Appendix F.3).

Every strategy accepts a ``metric`` (see :mod:`repro.core.metric`):
``"l2"`` (the default) minimizes squared distances through the exact
historical code path — bit-identical to the metric-oblivious
implementation — while ``"ip"`` / ``"cosine"`` maximize similarity scores.
Direction-generic selection reuses the minimization machinery on negated
keys (IEEE negation is exact and double negation restores the original bit
pattern), so the suffix-minimum early exit becomes a suffix-*extremum*:
the scan stops as soon as no unvisited candidate's optimistic bound can
beat the current ``k``-th best exact value, whichever direction "beat"
points.

Candidate selection avoids full ``O(n log n)`` stable sorts on the hot path:
:func:`repro.substrates.linalg.stable_topk_indices` narrows the selection
with an ``O(n)`` argpartition and only sorts the survivors, with ties broken
by ascending index exactly as the stable full sort would.  Every strategy
also exposes :meth:`Reranker.rerank_batch`, the per-query loop used by the
batch search engine (the estimates differ per query, so re-ranking is
inherently per-query work; all strategies keep batch output identical to
looping :meth:`Reranker.rerank`).
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.core.estimator import DistanceEstimate
from repro.core.metric import Metric, resolve_metric
from repro.exceptions import InvalidParameterError
from repro.index.flat import FlatIndex
from repro.substrates.linalg import require_positive_int, stable_topk_indices


class Reranker(abc.ABC):
    """Interface of a re-ranking strategy."""

    @abc.abstractmethod
    def rerank(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        estimate: DistanceEstimate,
        flat_index: FlatIndex,
        k: int,
        *,
        metric: str | Metric = "l2",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Return ``(ids, values, n_exact_computations)`` of the final top-k.

        ``values`` are exact metric values (squared distances ascending for
        ``metric="l2"``, similarity scores descending for ``"ip"`` /
        ``"cosine"``) for strategies that compute them and estimated values
        for :class:`NoReranker`.  ``n_exact_computations`` counts raw-vector
        metric evaluations and is the cost measure the paper's QPS
        differences ultimately track.
        """

    def rerank_batch(
        self,
        queries: np.ndarray,
        candidate_ids: list[np.ndarray] | tuple[np.ndarray, ...],
        estimates: list[DistanceEstimate] | tuple[DistanceEstimate, ...],
        flat_index: FlatIndex,
        k: int,
        *,
        metric: str | Metric = "l2",
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Re-rank one candidate list + estimate per query row.

        The default implementation loops :meth:`rerank`, which guarantees
        batch results identical to the sequential path.
        """
        queries_mat = np.asarray(queries, dtype=np.float64)
        if queries_mat.ndim != 2 or queries_mat.shape[0] != len(candidate_ids):
            raise InvalidParameterError(
                "queries must be a matrix with one row per candidate list"
            )
        if len(candidate_ids) != len(estimates):
            raise InvalidParameterError(
                "need exactly one DistanceEstimate per candidate list"
            )
        return [
            self.rerank(
                queries_mat[i],
                candidate_ids[i],
                estimates[i],
                flat_index,
                k,
                metric=metric,
            )
            for i in range(queries_mat.shape[0])
        ]


class NoReranker(Reranker):
    """Rank candidates purely by their estimated values (no exact step)."""

    def rerank(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        estimate: DistanceEstimate,
        flat_index: FlatIndex,
        k: int,
        *,
        metric: str | Metric = "l2",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        resolved = resolve_metric(metric)
        ids = np.asarray(candidate_ids, dtype=np.int64)
        est = estimate.distances
        k = min(k, ids.shape[0])
        if k == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 0
        order = stable_topk_indices(resolved.sort_key(est), k)
        return ids[order], est[order], 0


class TopCandidateReranker(Reranker):
    """Re-rank a fixed number of best-estimated candidates exactly.

    Parameters
    ----------
    n_candidates:
        How many candidates (per query) get exact metric computations;
        the paper sweeps 500 / 1000 / 2500 for IVF-OPQ.
    """

    def __init__(self, n_candidates: int) -> None:
        require_positive_int(n_candidates, "n_candidates")
        self.n_candidates = int(n_candidates)

    def rerank(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        estimate: DistanceEstimate,
        flat_index: FlatIndex,
        k: int,
        *,
        metric: str | Metric = "l2",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        resolved = resolve_metric(metric)
        ids = np.asarray(candidate_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 0
        keep = min(self.n_candidates, ids.shape[0])
        order = stable_topk_indices(resolved.sort_key(estimate.distances), keep)
        shortlist = ids[order]
        if not resolved.higher_is_better:
            final_ids, final_dists = flat_index.rerank(query, shortlist, k)
            return final_ids, final_dists, int(shortlist.shape[0])
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        scores = resolved.exact_scores(
            flat_index.data[np.asarray(shortlist, dtype=np.intp)], vec
        )
        sel = stable_topk_indices(-scores, min(k, shortlist.shape[0]))
        return shortlist[sel], scores[sel], int(shortlist.shape[0])


class ErrorBoundReranker(Reranker):
    """RaBitQ's tuning-free re-ranking rule based on the error bound.

    Candidates are visited in order of best estimated value.  The ``k``
    best exact values found so far are maintained; a candidate's exact
    value is computed only when the optimistic end of its confidence
    interval could still beat the current ``k``-th best.  Because
    candidates are visited in estimated order and the bound holds with
    high probability, the true best neighbours are sent to re-ranking with
    high probability while hopeless candidates are skipped cheaply.

    The estimated-value ordering is materialized lazily: only a doubling
    prefix of the stable order is computed (via argpartition-based partial
    selection), and the scan stops early once no unvisited candidate's
    optimistic bound can beat the current ``k``-th best exact value — the
    threshold only ever tightens, so none of the remaining candidates could
    ever be selected.  For moderate candidate sets a pre-computed
    suffix-extremum of the bounds along the stable order (suffix *minimum*
    of lower bounds for distances, suffix *maximum* of upper bounds for
    similarities — evaluated on the negated keys, so one code path serves
    both directions) makes that stop check O(1) per chunk.  All of this is
    output-preserving: ids, values and the exact-computation count match
    the eager full-sort implementation, and the ``metric="l2"`` path is
    bit-identical to the historical distance-only code.
    """

    def rerank(
        self,
        query: np.ndarray,
        candidate_ids: np.ndarray,
        estimate: DistanceEstimate,
        flat_index: FlatIndex,
        k: int,
        *,
        metric: str | Metric = "l2",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        resolved = resolve_metric(metric)
        ids = np.asarray(candidate_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 0

        # Exact values are computed inline (gather + the metric's exact
        # kernel — for L2 the same difference + einsum as
        # FlatIndex.distances, without the per-call validation); ``data``
        # is a view of the flat index's raw vectors.
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        data = flat_index.data

        if not resolved.higher_is_better:
            # The historical minimization path: keys are the values
            # themselves, the optimistic bound is the lower bound.
            est = estimate.distances
            opt = estimate.lower_bounds

            def exact_key(selected_ids: np.ndarray) -> np.ndarray:
                diff = data[selected_ids] - vec[None, :]
                return np.einsum("ij,ij->i", diff, diff)

            final_ids, final_vals, n_exact = self._rerank_by_min_key(
                ids, est, opt, exact_key, k
            )
            return final_ids, final_vals, n_exact

        # Similarity metrics run the same minimization machinery on negated
        # keys: the optimistic bound is the upper bound, "k-th best" is the
        # k-th largest exact score, and the suffix minimum of the negated
        # upper bounds is the suffix maximum of the real ones.  Negation is
        # exact, so un-negating the pooled values restores the scores bit
        # for bit.
        est = -estimate.scores
        opt = -estimate.upper_bounds

        def exact_key(selected_ids: np.ndarray) -> np.ndarray:
            return -resolved.exact_scores(data[selected_ids], vec)

        final_ids, final_vals, n_exact = self._rerank_by_min_key(
            ids, est, opt, exact_key, k
        )
        return final_ids, -final_vals, n_exact

    @staticmethod
    def _rerank_by_min_key(
        ids: np.ndarray,
        est: np.ndarray,
        opt: np.ndarray,
        exact_key: Callable[[np.ndarray], np.ndarray],
        k: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Error-bound re-ranking over minimization keys.

        ``est`` orders the visit (ascending), ``opt`` is the smallest key a
        candidate could truly have, and ``exact_key(selected_ids)`` returns
        the exact keys of the selected rows.  This is the historical L2
        implementation verbatim; direction-generic callers feed negated
        arrays.
        """
        n_candidates = ids.shape[0]

        # Batch the exact computations: exact keys are computed for the
        # visited prefix lazily, but NumPy-vectorized per chunk to keep the
        # Python overhead bounded.  The evolving k-th-best threshold is
        # maintained with a small pooled array per chunk instead of a
        # per-element Python heap; the pool holds every computed
        # (id, value) pair in visit order, so the final stable selection
        # reproduces the heap implementation's output — including tie
        # handling and the exact-computation count — exactly.
        pool_ids: list[np.ndarray] = []
        pool_vals: list[np.ndarray] = []
        kbest = np.empty(0, dtype=np.float64)  # k smallest exact keys so far
        n_pooled = 0
        n_exact = 0
        chunk = max(64, k)

        # For moderate candidate sets, materialize the full stable order once
        # and pre-compute the suffix minimum of the optimistic bounds along
        # it: "can any unvisited candidate still beat the threshold?" then
        # costs O(1) per chunk instead of an O(n) scan per doubling round.
        # The stop condition is unchanged — the scan ends exactly when every
        # remaining chunk would select nothing (the threshold only ever
        # decreases), so ids, values and the exact-computation count all
        # match the lazily-doubling implementation.
        suffix_min: np.ndarray | None = None
        if n_candidates <= 8192:
            m = n_candidates
            order = stable_topk_indices(est, n_candidates)
            suffix_min = np.minimum.accumulate(opt[order][::-1])[::-1]
        else:
            m = 0  # length of the materialized stable-order prefix
            order = np.empty(0, dtype=np.intp)
        idx = 0
        while idx < n_candidates:
            if suffix_min is not None:
                if n_pooled >= k and suffix_min[idx] > kbest.max():
                    break
            elif idx >= m:
                if n_pooled >= k:
                    threshold = kbest.max()
                    unvisited = np.ones(n_candidates, dtype=bool)
                    unvisited[order[:idx]] = False
                    if not (opt[unvisited] <= threshold).any():
                        break
                m = min(n_candidates, max(chunk, 2 * m))
                order = stable_topk_indices(est, m)
            stop = min(idx + chunk, m)
            block = order[idx:stop]
            threshold = kbest.max() if n_pooled >= k else np.inf
            # Candidates whose optimistic bound already loses to the k-th
            # best exact key can be dropped without an exact computation.
            selected = block[opt[block] <= threshold]
            if selected.shape[0] > 0:
                selected_ids = ids[selected]
                exact = exact_key(selected_ids)
                n_exact += int(selected.shape[0])
                pool_ids.append(selected_ids)
                pool_vals.append(exact)
                n_pooled += int(selected.shape[0])
                # Update the k smallest multiset (only its max — the
                # threshold — is ever read, so boundary ties are immaterial).
                merged = np.concatenate([kbest, exact])
                kbest = (
                    np.partition(merged, k - 1)[:k]
                    if merged.shape[0] > k
                    else merged
                )
            idx = stop

        if n_pooled == 0:
            # Fall back to the estimated ranking if every candidate was pruned
            # (can only happen with a pathological, e.g. NaN, bound).
            fallback = min(k, n_candidates)
            full_order = stable_topk_indices(est, fallback)
            return ids[full_order], est[full_order], n_exact
        all_ids = pool_ids[0] if len(pool_ids) == 1 else np.concatenate(pool_ids)
        all_vals = (
            pool_vals[0] if len(pool_vals) == 1 else np.concatenate(pool_vals)
        )
        # Stable top-k over the pool in visit order == the heap version's
        # "sorted by value, ties by first computation" output.
        final = stable_topk_indices(all_vals, min(k, n_pooled))
        return all_ids[final], all_vals[final], n_exact


__all__ = [
    "Reranker",
    "NoReranker",
    "TopCandidateReranker",
    "ErrorBoundReranker",
]
