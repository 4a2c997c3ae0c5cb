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
  (very) high probability by Theorem 3.2.  Only the first chunk of the
  visit order is sorted up front; the rest of the scan places just the
  candidates whose optimistic bound can still beat the ``k``-th best exact
  value of that chunk.
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
from repro.substrates.linalg import (
    require_positive_int,
    stable_positions,
    stable_topk_indices,
)


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

    **The scan.**  Candidates are visited in stable order of best
    estimated value, in chunks of ``max(64, k)``.  The ``k`` best exact
    values found so far are maintained; a candidate's exact value is
    computed only when its optimistic bound (lower bound for distances,
    upper bound for similarities) could still beat the current ``k``-th
    best, and the scan stops once no unvisited candidate's optimistic bound
    can (a suffix-extremum of the bounds along the visit order makes that an
    O(1) check per chunk).  Distances and similarities share one code path:
    similarities run on negated keys.

    **The cut.**  The first chunk is computed in full, as the scan always
    does, and its ``k``-th best exact value is the threshold every later
    chunk starts from.  The threshold only tightens, so a later candidate
    whose optimistic bound loses to it is never computed; it is dropped
    before anything else is sorted.  The survivors are placed at their
    positions in the full visit order (one value sort and a binary search
    each, instead of the index-carrying stable sort of every candidate) and
    grouped into the same chunks.

    **The contract.**  The cut is made of exact values and assumes no
    bound: the chunks, thresholds and exact computations are those of the
    full-sort scan, so ids, value bits and the exact-computation count are
    identical on every input, whether the intervals hold or not.  Only the
    ordering work falls.
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
            # Distances: keys are the values themselves, the optimistic
            # bound is the lower bound.
            def exact_key(selected_ids: np.ndarray) -> np.ndarray:
                diff = data[selected_ids] - vec[None, :]
                return np.einsum("ij,ij->i", diff, diff)

            return self._rerank_by_min_key(
                ids,
                estimate.distances,
                estimate.lower_bounds,
                exact_key,
                k,
            )

        # Similarity metrics run the same minimization on negated keys: the
        # optimistic bound is the upper bound and "k-th best" is the k-th
        # largest exact score.  Negation is exact, so un-negating the pooled
        # values restores the scores bit for bit.
        def exact_key(selected_ids: np.ndarray) -> np.ndarray:
            return -resolved.exact_scores(data[selected_ids], vec)

        final_ids, final_vals, n_exact = self._rerank_by_min_key(
            ids,
            -estimate.scores,
            -estimate.upper_bounds,
            exact_key,
            k,
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

        ``est`` orders the visit (ascending, ties by index), ``opt`` is the
        smallest key a candidate could truly have, and
        ``exact_key(selected_ids)`` returns the exact keys of the selected
        rows.  Similarity callers feed negated arrays.
        """
        # Exact keys are computed NumPy-vectorized per chunk.  The evolving
        # k-th-best threshold is maintained with a small pooled array per
        # chunk instead of a per-element Python heap; the pool holds every
        # computed (id, value) pair in visit order, so the final stable
        # selection reproduces the heap formulation's output — including
        # tie handling and the exact-computation count — exactly.
        pool_ids: list[np.ndarray] = []
        pool_vals: list[np.ndarray] = []
        kbest = np.empty(0, dtype=np.float64)  # k smallest exact keys so far
        threshold = np.inf  # their max, once there are k of them

        def visit(block: np.ndarray) -> None:
            nonlocal kbest, threshold
            selected = ids[block[opt[block] <= threshold]]
            if selected.shape[0] == 0:
                return
            exact = exact_key(selected)
            pool_ids.append(selected)
            pool_vals.append(exact)
            # Update the k smallest multiset (only its max — the threshold —
            # is ever read, so boundary ties are immaterial).
            kbest = np.concatenate([kbest, exact])
            if kbest.shape[0] >= k:
                kbest = np.partition(kbest, k - 1)[:k]
                threshold = kbest.max()

        chunk = max(64, k)
        first = stable_topk_indices(est, chunk)
        visit(first)
        # The cut: only candidates whose optimistic bound ties or beats the
        # first chunk's threshold can be selected later (it only tightens).
        later = opt <= threshold
        later[first] = False
        later = np.flatnonzero(later)
        if later.shape[0]:
            position = stable_positions(est, later)
            by_position = np.argsort(position)
            later, chunk_of = later[by_position], position[by_position] // chunk
            suffix_min = np.minimum.accumulate(opt[later][::-1])[::-1]
            starts = np.flatnonzero(chunk_of[1:] != chunk_of[:-1]) + 1
            for start, stop in zip([0, *starts], [*starts, later.shape[0]]):
                # Once no unvisited candidate's optimistic bound can beat
                # the threshold, none ever will.
                if suffix_min[start] > threshold:
                    break
                visit(later[start:stop])

        if not pool_ids:
            # Fall back to the estimated ranking if every candidate was pruned
            # (can only happen with a pathological, e.g. NaN, bound).
            fallback = first[: min(k, first.shape[0])]
            return ids[fallback], est[fallback], 0
        all_ids = np.concatenate(pool_ids)
        all_vals = np.concatenate(pool_vals)
        # Stable top-k over the pool in visit order == the heap formulation's
        # "sorted by value, ties by first computation" output.
        final = stable_topk_indices(all_vals, min(k, all_vals.shape[0]))
        return all_ids[final], all_vals[final], int(all_vals.shape[0])


__all__ = [
    "Reranker",
    "NoReranker",
    "TopCandidateReranker",
    "ErrorBoundReranker",
]
