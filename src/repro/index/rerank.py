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
also exposes :meth:`Reranker.rerank_batch`, which takes one flat candidate
buffer with per-query offsets and equals looping :meth:`Reranker.rerank`.
:class:`ErrorBoundReranker` computes the first chunk of L2 queries 16 at a
time; only queries whose cut leaves later candidates continue one by one.
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
        candidate_ids: np.ndarray,
        estimate: DistanceEstimate,
        offsets: np.ndarray,
        flat_index: FlatIndex,
        k: int,
        *,
        metric: str | Metric = "l2",
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Re-rank every query row against its own range of flat candidates.

        Row ``i`` owns ``candidate_ids[offsets[i]:offsets[i + 1]]`` and the
        same range of every ``estimate`` field: the layout the batch search
        engine estimates into.  Rows that :meth:`_rerank_rows` leaves open
        (by default all) get :meth:`rerank` over views of their ranges, so
        batch results are identical to the sequential path.
        """
        queries_mat = np.asarray(queries, dtype=np.float64)
        bounds = np.asarray(offsets, dtype=np.int64)
        edges = bounds.tolist()
        if (
            queries_mat.ndim != 2
            or bounds.shape != (queries_mat.shape[0] + 1,)
            or edges[0] != 0
            or not edges[-1] == len(candidate_ids) == len(estimate)
            or any(hi < lo for lo, hi in zip(edges, edges[1:]))
        ):
            raise InvalidParameterError("offsets must split candidates by query row")
        out = self._rerank_rows(
            queries_mat, candidate_ids, estimate, bounds, flat_index, k, metric
        )
        fields = tuple(vars(estimate).values())
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if out[i] is None:
                view = DistanceEstimate(*[field[lo:hi] for field in fields])
                out[i] = self.rerank(
                    queries_mat[i], candidate_ids[lo:hi], view,
                    flat_index, k, metric=metric,
                )
        return out

    def _rerank_rows(self, queries, ids, estimate, offsets, flat, k, metric):
        """The rows :meth:`rerank_batch` answers in one step; ``None`` if not."""
        return [None] * queries.shape[0]


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
            return self._rerank_by_min_key(
                ids,
                estimate.distances,
                estimate.lower_bounds,
                _l2_key(data, vec),
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

    def _rerank_rows(self, queries, ids, estimate, offsets, flat, k, metric):
        """L2 rows whose first chunk is computed batched, in full blocks of 16.

        Per block, ``partition`` finds each chunk edge, a gather and a 3-D
        ``einsum`` (:meth:`rerank`'s bits) the exact keys, ``partition`` the
        thresholds and ``lb <= thr`` the cut.  Rows the cut empties are done;
        the rest continue in :meth:`_rerank_by_min_key`.  A tied or NaN edge,
        a NaN bound in the chunk, a list shorter than the chunk, rows past the
        last full block and similarity metrics are left open for :meth:`rerank`.
        """
        out: list = [None] * queries.shape[0]
        # At B=1 nearly every row continues past its chunk, and a block of
        # fewer than 16 rows costs more NumPy calls than the per-query first
        # chunks it replaces (the break-even on the perf/ shape).
        if resolve_metric(metric).higher_is_better or len(out) < 16:
            return out
        require_positive_int(k, "k")
        ids = np.asarray(ids, dtype=np.int64)
        est, lb, data = estimate.distances, estimate.lower_bounds, flat.data
        chunk, bounds, lengths = max(64, k), offsets.tolist(), np.diff(offsets)
        # Padding 16 rows to their longest takes at most 2x the batch's pairs.
        cap = 2 * bounds[-1] // 16
        fits = np.where(lengths <= cap, lengths, 0).tolist()
        for a in range(0, len(out) - 15, 16):
            b = a + 16
            lo, hi, n, width = bounds[a], bounds[b], lengths[a:b], max(fits[a:b])
            if width <= chunk:
                continue
            padded = np.full((b - a, width), np.inf)
            for j, i in enumerate(range(a, b)):
                padded[j, : fits[i]] = est[bounds[i] : bounds[i] + fits[i]]
            padded.partition(chunk, axis=1)
            edge = padded[:, :chunk].max(axis=1)
            # With nothing tied or NaN at the edge (padding puts +inf at a
            # short row's), a chunk is every value <= edge, ordered stably.
            edge[~(padded[:, chunk] > edge)] = np.nan
            pos = np.flatnonzero(est[lo:hi] <= np.repeat(edge, n)).reshape(-1, chunk)
            rows = a + np.flatnonzero(~np.isnan(edge))
            by_row = np.arange(rows.shape[0])[:, None]
            pos = lo + pos[by_row, np.argsort(est[lo + pos], axis=1, kind="stable")]
            diff = data[ids[pos]]
            np.subtract(diff, queries[rows, None, :], out=diff)
            exact = np.einsum("ijk,ijk->ij", diff, diff)
            # The cut: a bound beyond the chunk that ties or beats the k-th exact
            # key (counts run on over later unbatched rows, whose NaN thr hits none).
            thr, opt = np.full(b - a, np.nan), lb[pos]
            thr[rows - a] = np.partition(exact, k - 1, axis=1)[:, k - 1]
            hits = lb[lo:hi] <= np.repeat(thr, n)
            beyond = np.add.reduceat(hits, offsets[rows] - lo, dtype=np.int64)
            later = beyond > (opt <= thr[rows - a, None]).sum(axis=1)
            top = np.argsort(exact, axis=1, kind="stable")[:, :k]
            top_ids, top_vals = ids[pos[by_row, top]], exact[by_row, top]
            for j in np.flatnonzero(~np.isnan(opt).any(axis=1)).tolist():
                i, start, stop = rows[j], bounds[rows[j]], bounds[rows[j] + 1]
                out[i] = (top_ids[j], top_vals[j], chunk) if not later[j] else (
                    self._rerank_by_min_key(
                        ids[start:stop], est[start:stop], lb[start:stop],
                        _l2_key(data, queries[i]), k, first=(pos[j] - start, exact[j]),
                    )
                )
        return out

    @staticmethod
    def _rerank_by_min_key(
        ids: np.ndarray,
        est: np.ndarray,
        opt: np.ndarray,
        exact_key: Callable[[np.ndarray], np.ndarray],
        k: int,
        first: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Error-bound re-ranking over minimization keys.

        ``est`` orders the visit (ascending, ties by index), ``opt`` is the
        smallest key a candidate could truly have, and
        ``exact_key(selected_ids)`` returns the exact keys of the selected
        rows.  Similarity callers feed negated arrays.  ``first`` is a first
        chunk computed already, none of its bounds NaN: (positions, exact keys).
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

        def visit(block: np.ndarray, exact: np.ndarray | None = None) -> None:
            nonlocal kbest, threshold
            selected = ids[block[opt[block] <= threshold]]
            if selected.shape[0] == 0:
                return
            exact = exact_key(selected) if exact is None else exact
            pool_ids.append(selected)
            pool_vals.append(exact)
            # Update the k smallest multiset (only its max — the threshold —
            # is ever read, so boundary ties are immaterial).
            kbest = np.concatenate([kbest, exact])
            if kbest.shape[0] >= k:
                kbest = np.partition(kbest, k - 1)[:k]
                threshold = kbest.max()

        chunk = max(64, k)
        first, first_exact = first or (stable_topk_indices(est, chunk), None)
        visit(first, first_exact)
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


def _l2_key(data: np.ndarray, vec: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Exact squared L2 distances from ``vec`` to selected rows of ``data``."""

    def exact_key(selected_ids: np.ndarray) -> np.ndarray:
        diff = data[selected_ids] - vec[None, :]
        return np.einsum("ij,ij->i", diff, diff)

    return exact_key


__all__ = [
    "Reranker",
    "NoReranker",
    "TopCandidateReranker",
    "ErrorBoundReranker",
]
