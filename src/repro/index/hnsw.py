"""Hierarchical Navigable Small World (HNSW) graph index.

HNSW (Malkov & Yashunin, 2020) is the graph-based reference baseline of the
paper's ANN experiments (Fig. 4).  This is a pure-NumPy/Python implementation
of the standard algorithm: a layered proximity graph built by greedy
insertion with the heuristic neighbour-selection rule, searched with the
usual best-first beam search controlled by ``ef_search``.

The implementation is intentionally faithful rather than micro-optimized; it
serves as a relative reference curve in the QPS/recall trade-off.  Beyond
the textbook algorithm the index supports:

* **metric-aware search keys** — ``search(..., metric="l2"|"ip"|"cosine")``
  ranks nodes by exactly the minimization key that
  :meth:`repro.core.metric.Metric.probe_key` produces (squared L2 via the
  norm-expansion kernel, negated inner product, negated cosine), so graph
  searches and exact centroid scans order candidates on identical key values.
  The graph *structure* is always built under L2 (a navigable small world is
  a connectivity property, not a metric-specific one); only the search-time
  keys follow the served metric.
* **a batch entry point** — :meth:`search_batch` runs the per-query search
  for every row of a query matrix and returns rectangular id/key matrices.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

import numpy as np

from repro.core.metric import Metric, resolve_metric
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
)
from repro.index.ivf import STAT_KEY_EVALS
from repro.substrates.linalg import as_float_matrix, squared_distances_to_point
from repro.substrates.rng import RngLike, ensure_rng


class HNSWIndex:
    """Hierarchical navigable small-world graph for ANN search.

    Parameters
    ----------
    m:
        Maximum out-degree per node on the upper layers (layer 0 allows
        ``2 * m`` as in the reference implementation).  Must be at least 2:
        the level multiplier is ``1 / ln(m)``, which is undefined at
        ``m=1`` (and a 1-regular "graph" cannot navigate anyway).
    ef_construction:
        Beam width used while inserting elements.
    rng:
        Seed or generator for the level assignment.
    """

    def __init__(
        self,
        m: int = 16,
        ef_construction: int = 100,
        *,
        rng: RngLike = None,
    ) -> None:
        if m < 2:
            raise InvalidParameterError(
                f"m must be at least 2 (got {m}): the HNSW level multiplier "
                "is 1/ln(m), which is undefined at m=1"
            )
        if ef_construction <= 0:
            raise InvalidParameterError("ef_construction must be positive")
        self.m = int(m)
        self.m0 = 2 * int(m)
        self.ef_construction = int(ef_construction)
        self._rng = ensure_rng(rng)
        self._level_multiplier = 1.0 / math.log(float(self.m))
        self._data: np.ndarray | None = None
        # One adjacency dict per layer: node id -> list of neighbour ids.
        self._layers: list[dict[int, list[int]]] = []
        self._entry_point: int | None = None
        self._max_level: int = -1
        # Lazily-computed ``||x||^2`` cache backing the metric-aware keys.
        self._sq_norms: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._data is not None

    @property
    def data(self) -> np.ndarray:
        """The stored raw vectors."""
        if self._data is None:
            raise NotFittedError("HNSWIndex must be fitted before use")
        return self._data

    def __len__(self) -> int:
        return 0 if self._data is None else int(self._data.shape[0])

    def _draw_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_multiplier)

    def _distance(self, query: np.ndarray, node: int) -> float:
        diff = self._data[node] - query
        return float(diff @ diff)

    def _distances(self, query: np.ndarray, nodes: list[int]) -> np.ndarray:
        return squared_distances_to_point(self._data[nodes], query)

    def _node_sq_norms(self) -> np.ndarray:
        if self._sq_norms is None:
            self._sq_norms = np.einsum("ij,ij->i", self._data, self._data)
        return self._sq_norms

    def _make_keys(
        self,
        vec: np.ndarray,
        metric: Optional[Metric],
        stats: dict | None,
    ) -> Callable[[list[int]], np.ndarray]:
        """Per-node minimization keys for one query.

        ``metric=None`` is the legacy squared-L2 path; a resolved metric
        routes through :meth:`Metric.probe_key` so the key values are
        numerically the same computation exact-scan probing performs on the
        full node matrix.  When ``stats`` is given, every evaluated node is
        counted under :data:`STAT_KEY_EVALS`.
        """
        if metric is None:
            def keys(nodes: list[int]) -> np.ndarray:
                return squared_distances_to_point(self._data[nodes], vec)
        else:
            sq_norms = self._node_sq_norms()

            def keys(nodes: list[int]) -> np.ndarray:
                return metric.probe_key(self._data[nodes], sq_norms[nodes], vec)

        if stats is None:
            return keys

        def counted(nodes: list[int]) -> np.ndarray:
            stats[STAT_KEY_EVALS] = stats.get(STAT_KEY_EVALS, 0) + len(nodes)
            return keys(nodes)

        return counted

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: list[int],
        ef: int,
        layer: int,
        keys: Callable[[list[int]], np.ndarray] | None = None,
    ) -> list[tuple[float, int]]:
        """Best-first search on one layer; returns (key, id) pairs ascending."""
        if keys is None:
            keys = self._make_keys(query, None, None)
        adjacency = self._layers[layer]
        visited = set(entry_points)
        candidates: list[tuple[float, int]] = []
        results: list[tuple[float, int]] = []  # max-heap via negated key
        for point, dist in zip(entry_points, keys(entry_points)):
            dist = float(dist)
            heapq.heappush(candidates, (dist, point))
            heapq.heappush(results, (-dist, point))
        while candidates:
            dist, node = heapq.heappop(candidates)
            if results and dist > -results[0][0] and len(results) >= ef:
                break
            neighbours = [n for n in adjacency.get(node, []) if n not in visited]
            if not neighbours:
                continue
            visited.update(neighbours)
            dists = keys(neighbours)
            for neighbour, neighbour_dist in zip(neighbours, dists):
                neighbour_dist = float(neighbour_dist)
                if len(results) < ef or neighbour_dist < -results[0][0]:
                    heapq.heappush(candidates, (neighbour_dist, neighbour))
                    heapq.heappush(results, (-neighbour_dist, neighbour))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted([(-d, node) for d, node in results])

    def _select_neighbours(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Heuristic neighbour selection (Algorithm 4 of the HNSW paper)."""
        selected: list[int] = []
        for dist, node in sorted(candidates):
            if len(selected) >= m:
                break
            keep = True
            for chosen in selected:
                if self._distance(self._data[node], chosen) < dist:
                    keep = False
                    break
            if keep:
                selected.append(node)
        if not selected:
            selected = [node for _, node in sorted(candidates)[:m]]
        return selected

    def fit(self, data: np.ndarray) -> "HNSWIndex":
        """Build the graph by inserting every vector."""
        mat = as_float_matrix(data, "data")
        if mat.shape[0] == 0:
            raise EmptyDatasetError("cannot build an HNSW index over an empty dataset")
        self._data = mat
        self._layers = []
        self._entry_point = None
        self._max_level = -1
        self._sq_norms = None
        for node in range(mat.shape[0]):
            self._insert(node)
        self._repair_reachability()
        return self

    def _repair_reachability(self) -> None:
        """Make every node reachable from the entry point on layer 0.

        Neighbour-list pruning during insertion can leave a node with no
        in-edges on any search path from the entry point, which would make
        it invisible to :meth:`search` at *any* beam width.  This pass runs
        a BFS over layer 0's out-edges and, for each node the BFS cannot
        reach (ascending id order, so the repair is deterministic), links
        it bidirectionally to its nearest already-reachable node, then
        resumes the BFS through the newly attached component.  The added
        edges may push a node past its degree cap — harmless for search,
        which never assumes a bound.
        """
        adjacency = self._layers[0]
        reachable = {self._entry_point}
        frontier = [self._entry_point]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency.get(node, []):
                if neighbour not in reachable:
                    reachable.add(neighbour)
                    frontier.append(neighbour)
        for node in sorted(adjacency):
            if node in reachable:
                continue
            anchors = np.fromiter(sorted(reachable), dtype=np.int64)
            dists = self._distances(self._data[node], anchors)
            anchor = int(anchors[int(np.argmin(dists))])
            adjacency[anchor].append(node)
            if anchor not in adjacency[node]:
                adjacency[node].append(anchor)
            reachable.add(node)
            frontier = [node]
            while frontier:
                current = frontier.pop()
                for neighbour in adjacency.get(current, []):
                    if neighbour not in reachable:
                        reachable.add(neighbour)
                        frontier.append(neighbour)

    def _insert(self, node: int) -> None:
        level = self._draw_level()
        while len(self._layers) <= level:
            self._layers.append({})
        for layer in range(level + 1):
            self._layers[layer].setdefault(node, [])

        if self._entry_point is None:
            self._entry_point = node
            self._max_level = level
            return

        query = self._data[node]
        entry = self._entry_point
        # Greedy descent through the layers above the node's level.
        for layer in range(self._max_level, level, -1):
            improved = True
            while improved:
                improved = False
                for neighbour in self._layers[layer].get(entry, []):
                    if self._distance(query, neighbour) < self._distance(query, entry):
                        entry = neighbour
                        improved = True

        entry_points = [entry]
        for layer in range(min(level, self._max_level), -1, -1):
            max_degree = self.m0 if layer == 0 else self.m
            found = self._search_layer(
                query, entry_points, self.ef_construction, layer
            )
            neighbours = self._select_neighbours(query, found, max_degree)
            self._layers[layer][node] = list(neighbours)
            for neighbour in neighbours:
                links = self._layers[layer].setdefault(neighbour, [])
                links.append(node)
                if len(links) > max_degree:
                    # Shrink the neighbour's list with the same heuristic.
                    candidate_pairs = [
                        (self._distance(self._data[neighbour], other), other)
                        for other in links
                    ]
                    self._layers[layer][neighbour] = self._select_neighbours(
                        self._data[neighbour], candidate_pairs, max_degree
                    )
            entry_points = [node_id for _, node_id in found] or [entry]

        if level > self._max_level:
            self._max_level = level
            self._entry_point = node

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        ef_search: int | None = None,
        metric: str | Metric | None = None,
        stats: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, keys)`` of the ``k`` approximate best nodes.

        With the default ``metric=None`` the keys are squared L2 distances
        (the historical contract).  Passing a metric name ranks by the
        corresponding :meth:`Metric.probe_key` minimization key instead:
        squared L2 via the norm-expansion kernel, negated inner product for
        MIPS, negated cosine for cosine similarity.  ``stats``, when given a
        dict, is updated in place with :data:`STAT_KEY_EVALS` — the number
        of node keys this search evaluated.
        """
        if self._data is None or self._entry_point is None:
            raise NotFittedError("HNSWIndex must be fitted before use")
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self._data.shape[1]:
            raise DimensionMismatchError(
                f"query has dimension {vec.shape[0]}, index expects "
                f"{self._data.shape[1]}"
            )
        resolved = None if metric is None else resolve_metric(metric)
        keys = self._make_keys(vec, resolved, stats)
        ef = max(k, ef_search if ef_search is not None else max(2 * k, 50))

        entry = self._entry_point
        entry_key = float(keys([entry])[0])
        for layer in range(self._max_level, 0, -1):
            improved = True
            while improved:
                improved = False
                neighbours = self._layers[layer].get(entry, [])
                if not neighbours:
                    continue
                neighbour_keys = keys(neighbours)
                best = int(np.argmin(neighbour_keys))
                if float(neighbour_keys[best]) < entry_key:
                    entry = neighbours[best]
                    entry_key = float(neighbour_keys[best])
                    improved = True

        # Seed the beam with the global entry point as well as the greedy
        # descent's endpoint: reachability is guaranteed from the entry
        # point (see ``_repair_reachability``), so a full-width beam
        # (``ef >= len(self)``) provably covers every node.
        seeds = [entry]
        if self._entry_point != entry:
            seeds.append(self._entry_point)
        found = self._search_layer(vec, seeds, ef, 0, keys=keys)
        top = found[:k]
        ids = np.asarray([node for _, node in top], dtype=np.int64)
        vals = np.asarray([key for key, _ in top], dtype=np.float64)
        return ids, vals

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        ef_search: int | None = None,
        metric: str | Metric | None = None,
        stats: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row :meth:`search` over a query matrix.

        Returns ``(ids, keys)`` of shape ``(n_queries, min(k, len(self)))``;
        row ``i`` equals ``search(queries[i], k, ...)``.  Should a row's
        beam reach fewer nodes than the row width (possible only on a
        disconnected graph), the tail is padded with id ``-1`` and key
        ``+inf``.
        """
        if self._data is None or self._entry_point is None:
            raise NotFittedError("HNSWIndex must be fitted before use")
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        mat = as_float_matrix(queries, "queries")
        if mat.shape[0] and mat.shape[1] != self._data.shape[1]:
            raise DimensionMismatchError(
                f"queries have dimension {mat.shape[1]}, index expects "
                f"{self._data.shape[1]}"
            )
        width = min(int(k), len(self))
        ids = np.full((mat.shape[0], width), -1, dtype=np.int64)
        vals = np.full((mat.shape[0], width), np.inf, dtype=np.float64)
        for i in range(mat.shape[0]):
            row_ids, row_vals = self.search(
                mat[i], k, ef_search=ef_search, metric=metric, stats=stats
            )
            found = min(width, row_ids.shape[0])
            ids[i, :found] = row_ids[:found]
            vals[i, :found] = row_vals[:found]
        return ids, vals

    def degree_statistics(self) -> dict[str, float]:
        """Mean/max out-degree of layer 0 (diagnostic helper)."""
        if not self._layers:
            raise NotFittedError("HNSWIndex must be fitted before use")
        degrees = np.asarray([len(v) for v in self._layers[0].values()], dtype=np.int64)
        return {
            "mean_degree": float(degrees.mean()),
            "max_degree": float(degrees.max()),
            "n_layers": float(len(self._layers)),
        }


__all__ = ["HNSWIndex", "STAT_KEY_EVALS"]
