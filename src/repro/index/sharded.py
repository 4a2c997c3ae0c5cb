"""Sharded, thread-parallel serving layer over independent IVF-RaBitQ shards.

:class:`ShardedSearcher` partitions a dataset across ``n_shards``
independent :class:`repro.index.searcher.IVFQuantizedSearcher` instances
and serves queries by fanning out to every shard and merging the per-shard
top-k candidates with the library's stable top-k rule.  It is the step from
"one fast searcher on one thread" to a serving topology: shards are fully
independent (their own KMeans codebook, rotation, code arena, rounding
streams), so they can be scanned in parallel threads — the NumPy GEMM/GEMV
estimation kernels release the GIL — and, later, moved to separate
processes or machines without changing the query semantics.

**Global external ids.**  Vectors keep one *global* id across the whole
lifecycle, no matter which shard stores them.  After :meth:`fit` the global
ids are ``0 .. n-1`` (row positions, exactly like the single searcher);
:meth:`insert` assigns fresh consecutive ids or accepts explicit ones.
Internally each shard manages its own local external ids; the sharded layer
keeps a per-shard local→global array and a global→(shard, local) map, and
every result reports global ids.

**Shard assignment.**  ``assignment="round_robin"`` (default) deals vectors
to shards in arrival order — perfectly balanced for any insert pattern;
``assignment="hash"`` places each vector by a splitmix64 hash of its global
id — deterministic placement that is stable under re-insertion of the same
ids.  Both keep assignment metadata O(1); the placement of existing vectors
never changes (no resharding on insert/delete).

**Merge semantics.**  Every shard answers with its own top-k (each shard's
result is already in ascending reported-distance order); the sharded result
is the stable top-k over the concatenation of the per-shard candidate lists
in shard order — ties by distance resolve toward the lower shard index,
then toward the shard's own ordering.  Given the same per-shard states, the
merged result is therefore a pure deterministic function of the per-shard
results: running the shards serially (``n_threads=1``), in a thread pool
(``n_threads>1``), or standalone (plain :class:`IVFQuantizedSearcher`
instances queried one by one and merged by hand) yields bit-identical ids,
distances and cost counters.  ``tests/test_sharded.py`` pins this
equivalence across fit → insert → delete → compact → save → load.

**nprobe is per shard.**  ``search(query, k, nprobe=p)`` probes ``p``
clusters *in every shard*.  Because each shard builds its own codebook over
``1/n_shards`` of the data, the combined codebook is finer than a single
searcher's: holding the *global* probe budget fixed (``p = nprobe_total /
n_shards``) scans roughly the same number of cells but each cell holds
fewer vectors, which shrinks the candidate set per query — the
work-efficiency win measured in ``benchmarks/run_bench.py``'s
``shards×threads`` sweep.  Probing more (e.g. the full ``nprobe_total`` per
shard) trades throughput back for recall.

**Concurrency.**  One :meth:`search_batch` call dispatches one task per
shard; a shard's rounding streams are consumed by exactly one task, in
batch order, so parallel execution is bit-identical to serial regardless of
scheduling.  Concurrent *top-level* calls on the same ``ShardedSearcher``
are memory-safe (shard scratch is thread-local) but interleave stream
consumption nondeterministically unless query preparation is deterministic
(``randomized_rounding=False``) — the same contract as the underlying
searcher, see ``repro/index/searcher.py``.  Mutations (:meth:`insert` /
:meth:`delete` / :meth:`compact`) must not run concurrently with queries.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import RaBitQConfig
from repro.core.metric import Metric, resolve_metric
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
)
from repro.index.rerank import Reranker
from repro.index.searcher import (
    BatchSearchResult,
    IVFQuantizedSearcher,
    SearchResult,
)
from repro.substrates.linalg import as_float_matrix, stable_topk_indices
from repro.substrates.rng import RngLike, ensure_rng, spawn_rngs

_ASSIGNMENTS = ("round_robin", "hash")


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over an int64/uint64 array (vectorized)."""
    z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class ShardedSearcher:
    """Shard-parallel ANN serving engine over independent RaBitQ searchers.

    Parameters
    ----------
    n_shards:
        Number of independent shards (each a full
        :class:`IVFQuantizedSearcher`).
    n_threads:
        Size of the fan-out thread pool.  ``None`` (default) uses one
        thread per shard; ``0`` or ``1`` runs the shards serially in the
        calling thread (bit-identical results either way).  May be
        reassigned between calls.
    assignment:
        ``"round_robin"`` (arrival-order dealing, default) or ``"hash"``
        (splitmix64 of the global id).
    n_clusters:
        IVF cluster count *per shard* (``None`` = per-shard size-scaled
        default, which yields a finer combined codebook than one searcher
        over the union — see the module docstring).
    rabitq_config:
        Shared RaBitQ configuration; each shard derives its own rotation
        and rounding streams from its own spawned generator.
    reranker:
        Re-ranking strategy shared by all shards (the built-in strategies
        are stateless; a custom reranker must be safe to call from several
        threads).
    rng:
        Seed or generator; per-shard KMeans/rotation generators are spawned
        from it, so a given seed reproduces the exact shard states.
    compact_threshold:
        Forwarded to every shard (see :class:`IVFQuantizedSearcher`).
    metric:
        The served metric (``"l2"``, ``"ip"`` or ``"cosine"``), forwarded
        to every shard; the cross-shard merge is metric-aware (stable
        top-k on ascending distances or descending similarity scores, ties
        toward the lower shard).  See :mod:`repro.core.metric`.
    bits:
        Code width ``B`` in bits per dimension, forwarded to every shard
        (an explicit value overrides ``rabitq_config``; ``None`` keeps
        the config's width).
    """

    def __init__(
        self,
        n_shards: int,
        *,
        n_threads: int | None = None,
        assignment: str = "round_robin",
        n_clusters: int | None = None,
        rabitq_config: Optional[RaBitQConfig] = None,
        reranker: Optional[Reranker] = None,
        rng: RngLike = None,
        compact_threshold: float | None = 0.25,
        metric: str | Metric = "l2",
        bits: int | None = None,
    ) -> None:
        if n_shards <= 0:
            raise InvalidParameterError("n_shards must be positive")
        if assignment not in _ASSIGNMENTS:
            raise InvalidParameterError(
                f"assignment must be one of {_ASSIGNMENTS}"
            )
        if n_threads is not None and n_threads < 0:
            raise InvalidParameterError("n_threads must be >= 0 when given")
        self.n_shards = int(n_shards)
        self.assignment = assignment
        self.n_clusters = n_clusters
        self.rabitq_config = rabitq_config
        if bits is not None:
            base = (
                rabitq_config
                if rabitq_config is not None
                else RaBitQConfig(seed=0)
            )
            self.rabitq_config = base.with_overrides(bits=int(bits))
        self.reranker = reranker
        self.compact_threshold = compact_threshold
        self._metric = resolve_metric(metric)
        self._rng = ensure_rng(rng)
        self._n_threads = self.n_shards if n_threads is None else int(n_threads)
        self._pool: ThreadPoolExecutor | None = None
        self._shards: list[IVFQuantizedSearcher] | None = None
        # Lifecycle state: per-shard local→global id arrays (shard-local
        # external ids are always assigned consecutively, so position ==
        # local id), the global→(shard, local) routing map, and counters.
        self._l2g: list[np.ndarray] = []
        self._g2s: dict[int, tuple[int, int]] = {}
        self._next_gid = 0
        self._rr_next = 0
        # Crash-recovery state, populated by the persistence layer: the
        # UUID of the directory-archive generation this searcher was loaded
        # from (or last saved as) and the attached mutation journal, if
        # any.  Mutations are journaled at the global level only — the
        # per-shard searchers keep ``_journal is None`` and replay derives
        # the shard routing deterministically from the restored counters.
        self._archive_uuid: str | None = None
        self._journal = None

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #

    @property
    def n_threads(self) -> int:
        """Current fan-out thread count (0/1 = serial execution)."""
        return self._n_threads

    @n_threads.setter
    def n_threads(self, value: int) -> None:
        if value < 0:
            raise InvalidParameterError("n_threads must be >= 0")
        if value != self._n_threads:
            self._shutdown_pool()
        self._n_threads = int(value)

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        """Shut down the fan-out thread pool (idempotent).

        The searcher remains usable; the pool is recreated on the next
        parallel call.
        """
        self._shutdown_pool()

    def __enter__(self) -> "ShardedSearcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._shutdown_pool()
        except Exception:
            pass

    def _run_per_shard(self, tasks: Sequence[Callable[[], object]]) -> list:
        """Run one callable per shard, in shard order; parallel when enabled.

        Results are collected in shard order either way, so the merge input
        — and with it the merged output — is independent of scheduling.
        """
        if self._n_threads <= 1 or len(tasks) <= 1:
            return [task() for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._n_threads, thread_name_prefix="repro-shard"
            )
        futures = [self._pool.submit(task) for task in tasks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # Index phase
    # ------------------------------------------------------------------ #

    @property
    def metric(self) -> str:
        """Name of the served metric (``"l2"``, ``"ip"`` or ``"cosine"``)."""
        return self._metric.name

    @property
    def bits(self) -> int:
        """Code width ``B`` in bits per dimension (1 for binary RaBitQ)."""
        if self.rabitq_config is not None:
            return int(self.rabitq_config.bits)
        return 1

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._shards is not None

    @property
    def shards(self) -> list[IVFQuantizedSearcher]:
        """The per-shard searchers (shard order)."""
        if self._shards is None:
            raise NotFittedError("ShardedSearcher must be fitted before use")
        return self._shards

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.shards[0].flat.dim

    def shard_of(self, global_id: int) -> int:
        """The shard currently storing ``global_id`` (lookup, not hashing)."""
        entry = self._g2s.get(int(global_id))
        if entry is None:
            raise InvalidParameterError(
                f"unknown or deleted global id: {global_id}"
            )
        return entry[0]

    def _assign_shards(self, global_ids: np.ndarray) -> np.ndarray:
        """Shard index for each new vector (consumes round-robin positions)."""
        n_new = global_ids.shape[0]
        if self.assignment == "hash":
            return (
                _splitmix64(global_ids) % np.uint64(self.n_shards)
            ).astype(np.int64)
        shard_ids = (
            (np.arange(self._rr_next, self._rr_next + n_new, dtype=np.int64))
            % self.n_shards
        )
        self._rr_next += n_new
        return shard_ids

    def fit(self, data: np.ndarray) -> "ShardedSearcher":
        """Partition ``data`` across the shards and fit each one.

        Global external ids are assigned positionally (``0 .. n-1``),
        exactly like :meth:`IVFQuantizedSearcher.fit`; they remain stable
        across later mutations.  Every shard must receive at least one
        vector (guaranteed by round-robin whenever ``n >= n_shards``; hash
        assignment may need a larger ``n``).
        """
        mat = as_float_matrix(data, "data")
        n = mat.shape[0]
        if n < self.n_shards:
            raise InvalidParameterError(
                f"cannot fit {self.n_shards} shards with only {n} vectors"
            )
        global_ids = np.arange(n, dtype=np.int64)
        self._rr_next = 0
        shard_ids = self._assign_shards(global_ids)
        rows_per_shard = [
            np.flatnonzero(shard_ids == s) for s in range(self.n_shards)
        ]
        for s, rows in enumerate(rows_per_shard):
            if rows.shape[0] == 0:
                raise InvalidParameterError(
                    f"shard {s} received no vectors under "
                    f"assignment={self.assignment!r}; use more data or "
                    f"fewer shards"
                )
        shard_rngs = spawn_rngs(self._rng, self.n_shards)
        config = (
            self.rabitq_config
            if self.rabitq_config is not None
            else RaBitQConfig(seed=0)
        )
        shards = [
            IVFQuantizedSearcher(
                "rabitq",
                n_clusters=self.n_clusters,
                rabitq_config=config,
                reranker=self.reranker,
                rng=shard_rngs[s],
                compact_threshold=self.compact_threshold,
                metric=self._metric,
            )
            for s in range(self.n_shards)
        ]
        # Shard fits are independent (each owns its spawned generator), so
        # they fan out on the same pool as queries — on multi-core hosts
        # index construction parallelizes like search does, and the result
        # is scheduling-independent either way.
        self._run_per_shard(
            [
                (lambda shard=shard, rows=rows: shard.fit(mat[rows]))
                for shard, rows in zip(shards, rows_per_shard)
            ]
        )
        self._shards = shards
        self._l2g = [rows.astype(np.int64) for rows in rows_per_shard]
        self._g2s = {}
        for s, rows in enumerate(rows_per_shard):
            for local, gid in enumerate(rows.tolist()):
                self._g2s[gid] = (s, local)
        self._next_gid = n
        return self

    # ------------------------------------------------------------------ #
    # Mutation phase (index lifecycle)
    # ------------------------------------------------------------------ #

    @property
    def n_total(self) -> int:
        """Stored slots across all shards, including tombstoned ones."""
        return sum(shard.n_total for shard in self.shards)

    @property
    def n_deleted(self) -> int:
        """Tombstoned (deleted but not yet compacted) vectors, all shards."""
        return sum(shard.n_deleted for shard in self.shards)

    @property
    def n_live(self) -> int:
        """Searchable vectors across all shards."""
        return sum(shard.n_live for shard in self.shards)

    @property
    def live_ids(self) -> np.ndarray:
        """Global ids of all searchable vectors, ascending."""
        parts = [
            self._l2g[s][shard.live_ids]
            for s, shard in enumerate(self.shards)
            if shard.n_live
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def _journal_record(self, op: str, **arrays: np.ndarray) -> None:
        """Append a mutation record when a journal is attached (else no-op)."""
        if self._journal is not None:
            self._journal.record(op, **arrays)

    def insert(
        self, vectors: np.ndarray, ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Insert new vectors, route them to shards, return their global ids.

        Validation (dimensions, id uniqueness, collisions) happens *before*
        any shard mutates, so a rejected insert leaves every shard
        untouched.
        """
        shards = self.shards  # raises NotFittedError when unfitted
        mat = as_float_matrix(vectors, "vectors")
        n_new = mat.shape[0]
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        if mat.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"vectors have dimension {mat.shape[1]}, index expects "
                f"{self.dim}"
            )
        if ids is None:
            new_gids = np.arange(
                self._next_gid, self._next_gid + n_new, dtype=np.int64
            )
        else:
            new_gids = np.asarray(ids, dtype=np.int64).reshape(-1)
            if new_gids.shape[0] != n_new:
                raise InvalidParameterError(
                    "need exactly one global id per inserted vector"
                )
            if np.unique(new_gids).shape[0] != n_new:
                raise InvalidParameterError("inserted ids must be unique")
            collisions = [g for g in new_gids.tolist() if g in self._g2s]
            if collisions:
                raise InvalidParameterError(
                    f"ids already present in the index: {collisions[:5]}"
                )
        shard_ids = self._assign_shards(new_gids)
        for s in range(self.n_shards):
            rows = np.flatnonzero(shard_ids == s)
            if rows.shape[0] == 0:
                continue
            locals_ = shards[s].insert(mat[rows])
            self._l2g[s] = np.concatenate([self._l2g[s], new_gids[rows]])
            for local, gid in zip(locals_.tolist(), new_gids[rows].tolist()):
                self._g2s[gid] = (s, local)
        self._next_gid = max(self._next_gid, int(new_gids.max()) + 1)
        # Journal the *resolved* global ids: replay re-derives the shard
        # routing from the restored assignment counters, but must never
        # re-derive id assignment.
        self._journal_record("insert", vectors=mat, ids=new_gids)
        return new_gids

    def delete(self, ids: np.ndarray | int) -> int:
        """Tombstone the given global ids; return how many were removed.

        All ids are validated against the routing map before any shard
        mutates (unknown or already-deleted ids raise
        :class:`InvalidParameterError` and leave the index unchanged).
        Per-shard auto-compaction fires independently, exactly as on a
        standalone searcher.
        """
        shards = self.shards
        requested = np.unique(np.asarray(ids, dtype=np.int64).reshape(-1))
        per_shard: dict[int, list[int]] = {}
        missing = []
        for gid in requested.tolist():
            entry = self._g2s.get(gid)
            if entry is None:
                missing.append(gid)
            else:
                per_shard.setdefault(entry[0], []).append(entry[1])
        if missing:
            raise InvalidParameterError(
                f"cannot delete unknown or already-deleted ids: {missing[:5]}"
            )
        for s, local_ids in per_shard.items():
            shards[s].delete(np.asarray(local_ids, dtype=np.int64))
        for gid in requested.tolist():
            del self._g2s[gid]
        # Per-shard auto-compactions replay from this record (the shard
        # searchers carry no journal of their own).
        self._journal_record("delete", ids=requested)
        return int(requested.shape[0])

    def compact(self) -> int:
        """Compact every shard; return the total number of slots reclaimed.

        Shard-local external ids (and therefore the global id mapping) are
        stable across compaction, so no routing state changes.
        """
        reclaimed = sum(shard.compact() for shard in self.shards)
        if reclaimed:
            # A no-reclaim compact is not journaled: replaying one would be
            # harmless, but the journal stays a log of state changes.
            self._journal_record("compact")
        return reclaimed

    # ------------------------------------------------------------------ #
    # Query phase
    # ------------------------------------------------------------------ #

    def _merge_one(
        self,
        k: int,
        shard_ids: list[np.ndarray],
        shard_dists: list[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stable top-k merge of per-shard results (global ids, values).

        Candidates are concatenated in shard order, so value ties break
        toward the lower shard index and then toward the shard's own
        (already best-first, stable) ordering — a fixed,
        scheduling-independent rule.  Selection is metric-aware: ascending
        squared distances for ``metric="l2"`` (the historical bit-identical
        path), descending similarity scores otherwise.
        """
        gids = [
            self._l2g[s][ids] if ids.shape[0] else ids
            for s, ids in enumerate(shard_ids)
        ]
        all_gids = np.concatenate(gids) if len(gids) > 1 else gids[0]
        all_dists = (
            np.concatenate(shard_dists)
            if len(shard_dists) > 1
            else shard_dists[0]
        )
        keep = min(k, all_gids.shape[0])
        if keep == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        order = stable_topk_indices(self._metric.sort_key(all_dists), keep)
        return all_gids[order], all_dists[order]

    def search(
        self, query: np.ndarray, k: int, *, nprobe: int = 8
    ) -> SearchResult:
        """Answer one ANN query across all shards (global ids).

        ``nprobe`` clusters are probed *per shard*; cost counters are the
        sums over shards.  Fewer than ``k`` results are returned only when
        the probed clusters hold fewer than ``k`` live vectors in total.
        """
        shards = self.shards
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if nprobe < 1:
            raise InvalidParameterError("nprobe must be >= 1")
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.dim:
            raise InvalidParameterError(
                f"query has {vec.shape[0]} dimensions, searcher expects "
                f"{self.dim}"
            )
        results: list[SearchResult] = self._run_per_shard(
            [
                (lambda shard=shard: shard.search(vec, k, nprobe=nprobe))
                for shard in shards
            ]
        )
        ids, dists = self._merge_one(
            k, [r.ids for r in results], [r.distances for r in results]
        )
        return SearchResult(
            ids=ids,
            distances=dists,
            n_candidates=sum(r.n_candidates for r in results),
            n_exact=sum(r.n_exact for r in results),
        )

    def search_batch(
        self, queries: np.ndarray, k: int, *, nprobe: int = 8
    ) -> BatchSearchResult:
        """Answer a batch of queries: one vectorized batch call per shard.

        Each shard processes the whole batch in one
        :meth:`IVFQuantizedSearcher.search_batch` call (queries in batch
        order, so per-shard stream consumption is scheduling-independent);
        the per-query merge is the same stable top-k as :meth:`search`,
        hence batch ≡ sequential holds for the sharded engine exactly as it
        does per shard.
        """
        shards = self.shards
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if nprobe < 1:
            raise InvalidParameterError("nprobe must be >= 1")
        query_mat = as_float_matrix(queries, "queries")
        n_queries = query_mat.shape[0]
        if n_queries > 0 and query_mat.shape[1] != self.dim:
            raise InvalidParameterError(
                f"queries have {query_mat.shape[1]} dimensions, searcher "
                f"expects {self.dim}"
            )
        if n_queries == 0:
            return BatchSearchResult(
                ids=(),
                distances=(),
                n_candidates=np.empty(0, dtype=np.int64),
                n_exact=np.empty(0, dtype=np.int64),
            )
        per_shard: list[BatchSearchResult] = self._run_per_shard(
            [
                (
                    lambda shard=shard: shard.search_batch(
                        query_mat, k, nprobe=nprobe
                    )
                )
                for shard in shards
            ]
        )
        ids_out: list[np.ndarray] = []
        dists_out: list[np.ndarray] = []
        for qi in range(n_queries):
            ids, dists = self._merge_one(
                k,
                [res.ids[qi] for res in per_shard],
                [res.distances[qi] for res in per_shard],
            )
            ids_out.append(ids)
            dists_out.append(dists)
        n_candidates = np.sum(
            [res.n_candidates for res in per_shard], axis=0, dtype=np.int64
        )
        n_exact = np.sum(
            [res.n_exact for res in per_shard], axis=0, dtype=np.int64
        )
        return BatchSearchResult(
            ids=tuple(ids_out),
            distances=tuple(dists_out),
            n_candidates=n_candidates,
            n_exact=n_exact,
        )

    # ------------------------------------------------------------------ #
    # Persistence support (see repro.io.persistence)
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_state(
        cls,
        shards: list[IVFQuantizedSearcher],
        l2g: list[np.ndarray],
        *,
        assignment: str,
        next_gid: int,
        rr_next: int,
        n_threads: int | None = None,
    ) -> "ShardedSearcher":
        """Rebuild a fitted sharded searcher from loaded shard state.

        Used by :func:`repro.io.persistence.load_sharded_searcher`; the
        routing map is reconstructed from each shard's live ids.
        """
        if len(shards) != len(l2g) or not shards:
            raise InvalidParameterError(
                "need one local-to-global id array per shard"
            )
        first = shards[0]
        if any(shard.metric != first.metric for shard in shards):
            raise InvalidParameterError(
                "all shards must serve the same metric"
            )
        if any(shard.bits != first.bits for shard in shards):
            raise InvalidParameterError(
                "all shards must use the same code width (bits)"
            )
        sharded = cls(
            len(shards),
            n_threads=n_threads,
            assignment=assignment,
            n_clusters=first.n_clusters,
            rabitq_config=first.rabitq_config,
            reranker=first.reranker,
            compact_threshold=first.compact_threshold,
            metric=first.metric,
        )
        g2s: dict[int, tuple[int, int]] = {}
        for s, (shard, mapping) in enumerate(zip(shards, l2g)):
            arr = np.asarray(mapping, dtype=np.int64).reshape(-1)
            # Local external ids are never reused, so the map needs one
            # entry per id ever assigned (which exceeds the live slot count
            # after a compaction).
            if arr.shape[0] < shard._next_id:
                raise InvalidParameterError(
                    f"shard {s} id map has {arr.shape[0]} entries for "
                    f"{shard._next_id} assigned local ids"
                )
            l2g[s] = arr
            for local in shard.live_ids.tolist():
                g2s[int(arr[local])] = (s, local)
        sharded._shards = list(shards)
        sharded._l2g = list(l2g)
        sharded._g2s = g2s
        sharded._next_gid = int(next_gid)
        sharded._rr_next = int(rr_next)
        return sharded


__all__ = ["ShardedSearcher"]
