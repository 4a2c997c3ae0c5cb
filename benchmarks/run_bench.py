#!/usr/bin/env python
"""Machine-readable ANN benchmark runner (the ``BENCH_ann.json`` trajectory).

Unlike the ``bench_fig*.py`` pytest modules (which print human-readable
tables), this is a plain script that executes the fig4-style ANN search
benchmark plus the kernel micro-benchmarks at *fixed* sizes and writes the
measurements to a JSON file, so that every PR leaves a machine-readable perf
trajectory behind and CI can fail on regressions.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py \
        --label after --out benchmarks/results/BENCH_ann.json

    # CI perf smoke: small sizes + regression gate against the committed
    # baseline (fails when single-query QPS drops by more than 30%).
    PYTHONPATH=src python benchmarks/run_bench.py --small \
        --label ci --out BENCH_ann_ci.json \
        --check benchmarks/results/BENCH_ann_small.json --check-label after

    # Million-vector tier: memmapped data, probe cost and end-to-end QPS
    # (writes benchmarks/results/BENCH_ann_large.json; the dataset file is
    # cached under benchmarks/.cache/ and reused across runs).
    PYTHONPATH=src python benchmarks/run_bench.py --large

The output file accumulates one entry per ``--label`` under ``"runs"`` (so a
single file can hold the pre-change ``before`` and post-change ``after``
measurements side by side); when both ``before`` and ``after`` are present a
``"speedup"`` section is derived from them.

Measured quantities per run:

* ``fit_seconds`` — index construction time (KMeans + encoding).
* ``single_query`` — QPS of the sequential :meth:`IVFQuantizedSearcher.search`
  loop.
* ``batch`` — QPS of :meth:`IVFQuantizedSearcher.search_batch`.
* ``recall_at_10`` — recall of the batch results against brute force (batch
  and sequential results are guaranteed element-wise identical, so one recall
  covers both).
* ``mips`` / ``cosine`` — the similarity-metric workloads: the same data
  served through ``metric="ip"`` / ``metric="cosine"`` searchers
  (metric-aware probing, similarity bounds, descending-score re-ranking),
  with recall measured against metric-specific brute-force ground truth and
  batch/single-query QPS tracked alongside the L2 numbers.  Every record
  carries a ``metric`` field; the ``--check`` gate also covers the MIPS
  batch QPS.
* ``phases`` — coarse per-phase breakdown of the sequential path (probe /
  rerank / estimation+preparation) from an instrumented second pass.
* ``durability`` — the crash-safe serving-state costs: cold (materialized)
  vs. memory-mapped warm-start load time of the format-v6 archive, the
  journal-replay throughput (mutation records applied per second when a
  journal-attached archive is reopened), and a hard
  ``recovery_bit_identical`` gate — the replayed searcher's batch results
  must match the in-memory mutated searcher bit for bit or the run fails.
* ``serving`` — the online serving front end: the coalescing engine's
  burst / closed-loop / open-loop-Poisson drivers vs. the sequential
  one-query-at-a-time reference, with exact p50/p95/p99 latency
  percentiles, admission-control and deadline-degradation counters, and
  two hard gates — every coalesced response must be bit-identical to a
  sequential ``search`` replay of the engine's execution log, and
  micro-batching must reduce mean work per request at batch fill >= 4
  (the single-CPU-honest headline; wall-clock QPS is tracked but not
  thread-scaling-gated).  The ``--check`` gate additionally bounds
  closed-loop p99 regressions.
* ``pareto`` — the multi-bit recall/QPS/code-size Pareto sweep: extended
  RaBitQ at ``B ∈ {1, 2, 4, 8}`` bits per dimension against the PQ / OPQ /
  SQ8 baselines, all through the same ``sqrt(n)``-cluster IVF geometry and
  probe budget, with every fit explicitly seeded.  Hard gates: RaBitQ
  recall@k must be non-decreasing in ``B`` (strictly higher at ``B=4``
  than at ``B=1`` on the full tier) and the ``B=4`` point must clear
  ``PARETO_RECALL_FLOOR``.
* ``kernels`` — micro-benchmarks of the packed-bit kernels at fixed sizes.
* ``sharded`` — the ``shards×threads`` sweep of the
  :class:`repro.index.sharded.ShardedSearcher` serving engine at a *fixed
  global probe budget* (per-shard ``nprobe = nprobe_total / shards``): batch
  QPS per configuration, recall, and a hard parallel ≡ serial equivalence
  gate (the parallel engine's results are compared bit-for-bit against a
  serial run restored from the same archived stream state; any mismatch
  fails the run).  The ``--check`` regression gate additionally compares
  the single-shard (shards=1, threads=1) batch QPS against the committed
  baseline, so wrapping a searcher in the serving layer can never silently
  regress.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import RaBitQConfig  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.metrics.recall import recall_at_k  # noqa: E402
from repro.metrics.timing import LatencyRecorder  # noqa: E402
from repro.index.searcher import IVFQuantizedSearcher  # noqa: E402


def _timeit(fn, *, repeat: int = 5, number: int = 1) -> float:
    """Best-of-``repeat`` wall-clock seconds for ``number`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


class _TimingReranker:
    """Transparent re-ranker proxy accumulating time spent in re-ranking."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0

    def rerank(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._inner.rerank(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        return out

    def rerank_batch(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._inner.rerank_batch(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        return out


def _load_bench_dataset(args):
    print(
        f"[run_bench] dataset: sift-analogue n={args.n} dim=128 "
        f"n_queries={args.n_queries} (seed {args.seed})",
        flush=True,
    )
    return load_dataset(
        "sift",
        n_data=args.n,
        n_queries=args.n_queries,
        ground_truth_k=args.k,
        rng=args.seed,
    )


def _code_bytes_per_vector(searcher) -> int:
    """Bytes of packed code per stored vector (all bit-planes included)."""
    return int(searcher._arena.n_words) * 8


def bench_ann(args, dataset) -> dict:
    """Fig. 4-style ANN benchmark at fixed sizes; returns the results dict."""
    data, queries = dataset.data, dataset.queries

    start = time.perf_counter()
    searcher = IVFQuantizedSearcher(
        "rabitq", rabitq_config=RaBitQConfig(seed=0), rng=0
    ).fit(data)
    fit_seconds = time.perf_counter() - start
    n_clusters = len(searcher.ivf.buckets)
    print(
        f"[run_bench] fit: {fit_seconds:.1f}s ({n_clusters} clusters)",
        flush=True,
    )

    k, nprobe = args.k, args.nprobe
    # Warm both paths (BLAS pools, lazy allocations, scratch buffers).
    searcher.search_batch(queries[: min(16, len(queries))], k, nprobe=nprobe)
    for query in queries[: min(16, len(queries))]:
        searcher.search(query, k, nprobe=nprobe)

    n_single = min(args.n_queries, args.n_single)
    single_latency = LatencyRecorder()
    start = time.perf_counter()
    for query in queries[:n_single]:
        t0 = time.perf_counter()
        searcher.search(query, k, nprobe=nprobe)
        single_latency.record(time.perf_counter() - t0)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = searcher.search_batch(queries, k, nprobe=nprobe)
    batch_seconds = time.perf_counter() - start

    recall = recall_at_k([r.ids for r in batch], dataset.ground_truth, k)

    # Instrumented pass for the coarse phase breakdown (separate from the
    # timed runs above so the proxies cannot skew the QPS numbers).
    n_phase = min(n_single, 100)
    probe_seconds = _timeit(
        lambda: searcher.ivf.probe_batch(queries[:n_phase], nprobe), repeat=3
    )
    proxy = _TimingReranker(searcher.reranker)
    searcher.reranker = proxy
    try:
        start = time.perf_counter()
        for query in queries[:n_phase]:
            searcher.search(query, k, nprobe=nprobe)
        instrumented_seconds = time.perf_counter() - start
    finally:
        searcher.reranker = proxy._inner
    rerank_seconds = proxy.seconds

    results = {
        "metric": "l2",
        "fit_seconds": round(fit_seconds, 3),
        "n_clusters": n_clusters,
        "code_bytes_per_vector": _code_bytes_per_vector(searcher),
        "single_query": {
            "n_queries": n_single,
            "seconds": round(single_seconds, 4),
            "qps": round(n_single / single_seconds, 1),
            "latency_ms": single_latency.summary_ms(),
        },
        "batch": {
            "n_queries": args.n_queries,
            "seconds": round(batch_seconds, 4),
            "qps": round(args.n_queries / batch_seconds, 1),
        },
        "recall_at_10": round(float(recall), 4),
        "avg_candidates_per_query": round(
            batch.total_candidates / len(batch), 1
        ),
        "avg_exact_per_query": round(batch.total_exact / len(batch), 1),
        "phases": {
            "n_queries": n_phase,
            "probe_seconds_per_query": round(probe_seconds / n_phase, 6),
            "rerank_seconds_per_query": round(rerank_seconds / n_phase, 6),
            "estimate_and_prepare_seconds_per_query": round(
                max(0.0, instrumented_seconds - rerank_seconds) / n_phase
                - probe_seconds / n_phase,
                6,
            ),
        },
    }
    print(
        f"[run_bench] single {results['single_query']['qps']} QPS | "
        f"batch {results['batch']['qps']} QPS | recall@{k} {recall:.4f}",
        flush=True,
    )
    return results


def bench_sharded(args, dataset) -> dict:
    """``shards×threads`` sweep of the sharded serving engine.

    The sweep partitions the *same index geometry* across shards
    (equal-geometry sharding: per-shard clusters = the single searcher's
    cluster count / shards, per-shard ``nprobe = nprobe_total / shards``),
    so the total cell count, probed-cell sizes and global probe budget all
    match the 1-shard baseline and the configurations differ only in the
    serving topology.  This isolates the serving-layer effects: KMeans
    construction cost drops superlinearly with per-shard cluster count
    (``sharded_fit_speedup``), and shard fan-out scales with cores
    (``threads`` dimension; flat on a single-CPU host).  For every shard
    count the fitted engine is archived once; a serial (``n_threads=0``)
    and a parallel reload then answer the full query batch from the
    *identical* stream state, and their results are compared bit for bit —
    the ``equivalent_to_serial`` gate.
    """
    import shutil
    import tempfile

    from repro.index.ivf import default_n_clusters
    from repro.index.sharded import ShardedSearcher
    from repro.io.persistence import (
        load_sharded_searcher,
        save_sharded_searcher,
    )

    data, queries = dataset.data, dataset.queries
    k = args.k
    n_queries = queries.shape[0]
    code_bytes = None
    sweep = []
    shard_counts = [s for s in (1, 2, 4) if s <= args.n]
    total_clusters = default_n_clusters(args.n)
    for shards in shard_counts:
        nprobe_shard = max(1, args.nprobe // shards)
        clusters_shard = max(1, total_clusters // shards)
        start = time.perf_counter()
        sharded = ShardedSearcher(
            shards,
            n_threads=1,
            n_clusters=clusters_shard,
            rabitq_config=RaBitQConfig(seed=0),
            rng=args.seed,
        ).fit(data)
        fit_seconds = time.perf_counter() - start
        tmp = Path(tempfile.mkdtemp(prefix="run_bench_sharded_"))
        try:
            archive = tmp / "sharded_idx"
            save_sharded_searcher(sharded, archive)
            del sharded
            serial = load_sharded_searcher(archive, n_threads=0)
            parallel = load_sharded_searcher(archive, n_threads=shards)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        # Both engines resume from the archived stream state: their first
        # batch answers must be bit-identical.
        serial_results = serial.search_batch(queries, k, nprobe=nprobe_shard)
        parallel_results = parallel.search_batch(queries, k, nprobe=nprobe_shard)
        equivalent = all(
            np.array_equal(a.ids, b.ids)
            and np.array_equal(a.distances, b.distances)
            for a, b in zip(serial_results, parallel_results)
        )
        recall = recall_at_k(
            [r.ids for r in parallel_results], dataset.ground_truth, k
        )
        shared = {
            "shards": shards,
            "nprobe_per_shard": nprobe_shard,
            "clusters_per_shard": clusters_shard,
            "fit_seconds": round(fit_seconds, 3),
            "recall_at_10": round(float(recall), 4),
            "avg_candidates_per_query": round(
                parallel_results.total_candidates / n_queries, 1
            ),
            "equivalent_to_serial": bool(equivalent),
        }
        thread_counts = [1] if shards == 1 else [1, shards]
        for threads, engine in zip(thread_counts, (serial, parallel)):
            seconds = _timeit(
                lambda e=engine: e.search_batch(queries, k, nprobe=nprobe_shard),
                repeat=3,
            )
            entry = dict(shared, threads=threads, batch_qps=round(n_queries / seconds, 1))
            sweep.append(entry)
            print(
                f"[run_bench] sharded: {shards} shard(s) x {threads} "
                f"thread(s), nprobe/shard {nprobe_shard}: "
                f"{entry['batch_qps']} QPS, recall@{k} {recall:.4f}, "
                f"equivalent={equivalent}",
                flush=True,
            )
        if code_bytes is None:
            code_bytes = _code_bytes_per_vector(serial.shards[0])
        serial.close()
        parallel.close()
    out = {
        "metric": "l2",
        "nprobe_total": args.nprobe,
        "code_bytes_per_vector": code_bytes,
        "sweep": sweep,
    }
    base = next(
        (e for e in sweep if e["shards"] == 1 and e["threads"] == 1), None
    )
    four = [e for e in sweep if e["shards"] == 4]
    if base and four:
        out["speedup_4shard_batch"] = round(
            max(e["batch_qps"] for e in four) / base["batch_qps"], 2
        )
        out["sharded_fit_speedup"] = round(
            base["fit_seconds"] / min(e["fit_seconds"] for e in four), 2
        )
        print(
            f"[run_bench] sharded: 4-shard batch speedup "
            f"{out['speedup_4shard_batch']}x, fit speedup "
            f"{out['sharded_fit_speedup']}x (host has {os.cpu_count()} "
            f"CPU(s); thread fan-out is flat on 1)",
            flush=True,
        )
    return out


def bench_serving(args, dataset) -> dict:
    """Online serving benchmark: coalescing engine vs. one-query-at-a-time.

    One index is fitted and archived once; every participant — the
    sequential reference, the serving searcher and the replay twin — is a
    fresh reload of that archive, so they all start from the identical
    rounding-stream state.  Three drivers run against one serving
    searcher in sequence (its stream state advances across drivers, and
    the replay twin follows the concatenated execution log):

    * ``burst`` — all requests submitted at once (closed-loop, zero think
      time): the micro-batcher's best case, measuring the *work per
      request* the coalescing engine achieves against the sequential
      reference.  This driver runs with a large batch cap because the
      batch engine's saving comes from per-cluster grouping (it needs
      several queries probing the same cluster to amortize anything).
      On a single-CPU host this work ratio — not wall-clock thread
      scaling — is the honest headline, and the ``gates`` entry requires
      micro-batching to reduce mean work per request at a mean batch
      fill >= 4.
    * ``closed_loop`` — a fixed pool of client threads submitting
      back-to-back: a bounded-concurrency regime whose enqueue-to-answer
      p50/p95/p99 come from the engine's exact ``LatencyRecorder``
      (nearest-rank percentiles; the ``--check`` gate bounds closed-loop
      p99 regressions on the small tier).
    * ``open_loop`` — seeded Poisson arrivals at ~1.3x the sequential
      service rate against a bounded queue with per-request deadlines and
      the EWMA budget controller attached: exercises admission control
      (``rejected``) and deadline degradation (``degraded_requests``,
      ``deadline_miss_rate``) under honest overload.

    The equivalence hard gate replays the full execution log — every
    answered request, in executed order, at its *effective* probe budget
    — through plain sequential ``search`` calls on the twin; any
    non-bit-identical response fails the run in ``main``.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.exceptions import AdmissionRejectedError
    from repro.io.persistence import load_searcher, save_searcher
    from repro.serving import (
        BudgetController,
        ServingEngine,
        execution_log_matches,
    )

    data, queries = dataset.data, dataset.queries
    k, nprobe = args.k, args.nprobe
    n_serving = min(len(queries), 512)
    work = queries[:n_serving]
    max_batch, max_delay_us = 16, 2000
    # Work-per-request is a per-cluster-grouping win: it needs roughly
    # batch * nprobe / n_clusters > 1 queries landing on each probed
    # cluster, so the burst driver (which measures the work ratio, not
    # latency) runs with a much larger batch cap and a window wide
    # enough to swallow the whole submission burst.
    burst_batch = min(n_serving, 256)
    burst_delay_us = 20_000
    n_warm = min(16, n_serving)

    searcher = IVFQuantizedSearcher(
        "rabitq", rabitq_config=RaBitQConfig(seed=0), rng=args.seed
    ).fit(data)
    tmp = Path(tempfile.mkdtemp(prefix="run_bench_serving_"))
    try:
        archive = tmp / "idx.rbq"
        save_searcher(searcher, archive)
        del searcher

        # --- sequential one-at-a-time reference -----------------------
        sequential = load_searcher(archive)
        sequential.search_batch(work[:n_warm], k, nprobe=nprobe)
        seq_latency = LatencyRecorder()
        start = time.perf_counter()
        for query in work:
            t0 = time.perf_counter()
            sequential.search(query, k, nprobe=nprobe)
            seq_latency.record(time.perf_counter() - t0)
        seq_seconds = time.perf_counter() - start
        seq_per_request = seq_seconds / n_serving
        del sequential

        # The serving searcher and its replay twin consume identical
        # warm-up randomness, keeping their streams in lock-step.
        serving = load_searcher(archive)
        twin = load_searcher(archive)
        serving.search_batch(work[:n_warm], k, nprobe=nprobe)
        twin.search_batch(work[:n_warm], k, nprobe=nprobe)
        logs = []

        # --- burst: all requests at once ------------------------------
        engine = ServingEngine(
            serving,
            max_batch=burst_batch,
            max_delay_us=burst_delay_us,
            max_queue_depth=n_serving + 1,
            record_requests=True,
        )
        start = time.perf_counter()
        pending = [
            engine.submit_async(query, k, nprobe=nprobe) for query in work
        ]
        for p in pending:
            p.result(timeout=600.0)
        engine.drain(timeout=600.0)
        burst_seconds = time.perf_counter() - start
        burst_stats = engine.stats()
        burst_latency = engine.latency.summary_ms()
        logs.extend(engine.execution_log())
        engine.close()
        burst_per_request = burst_seconds / n_serving
        work_reduction = seq_per_request / burst_per_request

        # --- closed loop: C client threads, zero think time -----------
        n_clients = 8
        engine = ServingEngine(
            serving,
            max_batch=max_batch,
            max_delay_us=max_delay_us,
            max_queue_depth=n_serving + 1,
            record_requests=True,
        )

        def client(slice_queries):
            for query in slice_queries:
                engine.submit(query, k, nprobe=nprobe, timeout=600.0)

        slices = [work[c::n_clients] for c in range(n_clients)]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            list(pool.map(client, slices))
        engine.drain(timeout=600.0)
        closed_seconds = time.perf_counter() - start
        closed_stats = engine.stats()
        closed_latency = engine.latency.summary_ms()
        logs.extend(engine.execution_log())
        engine.close()

        # --- open loop: seeded Poisson arrivals, deadlines, overload --
        arrival_rate = 1.3 / seq_per_request  # requests/second offered
        deadline = max(0.01, 50.0 * seq_per_request)
        gaps = np.random.default_rng(args.seed + 7).exponential(
            1.0 / arrival_rate, size=n_serving
        )
        engine = ServingEngine(
            serving,
            max_batch=max_batch,
            max_delay_us=max_delay_us,
            max_queue_depth=64,
            budget=BudgetController(min_nprobe=max(1, nprobe // 4)),
            record_requests=True,
        )
        pending = []
        next_arrival = time.perf_counter()
        start = next_arrival
        for query, gap in zip(work, gaps):
            next_arrival += gap
            pause = next_arrival - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            try:
                pending.append(
                    engine.submit_async(
                        query, k, nprobe=nprobe, deadline=deadline
                    )
                )
            except AdmissionRejectedError:
                pass  # counted by the engine's stats
        for p in pending:
            p.result(timeout=600.0)
        engine.drain(timeout=600.0)
        open_seconds = time.perf_counter() - start
        open_stats = engine.stats()
        open_latency = engine.latency.summary_ms()
        logs.extend(engine.execution_log())
        engine.close()

        # --- coalescing-equivalence hard gate -------------------------
        mismatched = execution_log_matches(twin, logs)
        equivalent = not mismatched
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = {
        "n_requests": n_serving,
        "max_batch": max_batch,
        "max_delay_us": max_delay_us,
        "sequential": {
            "seconds_per_request": round(seq_per_request, 6),
            "qps": round(n_serving / seq_seconds, 1),
            "latency_ms": seq_latency.summary_ms(),
        },
        "burst": {
            "max_batch": burst_batch,
            "max_delay_us": burst_delay_us,
            "seconds_per_request": round(burst_per_request, 6),
            "qps": round(n_serving / burst_seconds, 1),
            "batch_fill": round(burst_stats["mean_batch_fill"], 2),
            "max_batch_fill": burst_stats["max_batch_fill"],
            "work_per_request_reduction": round(work_reduction, 3),
            "latency_ms": burst_latency,
        },
        "closed_loop": {
            "clients": n_clients,
            "qps": round(n_serving / closed_seconds, 1),
            "batch_fill": round(closed_stats["mean_batch_fill"], 2),
            "latency_ms": closed_latency,
        },
        "open_loop": {
            "arrival_rate": round(arrival_rate, 1),
            "offered_load": 1.3,
            "deadline_ms": round(deadline * 1e3, 3),
            "qps": round(open_stats["completed"] / open_seconds, 1),
            "batch_fill": round(open_stats["mean_batch_fill"], 2),
            "rejected": open_stats["rejected"],
            "degraded_requests": open_stats["degraded_requests"],
            "deadline_miss_rate": round(open_stats["deadline_miss_rate"], 4),
            "latency_ms": open_latency,
        },
        "replayed_requests": len(logs),
        "coalesced_equivalent": bool(equivalent),
        "gates": {
            "coalesced_equivalent": bool(equivalent),
            "work_per_request_reduced": bool(
                burst_stats["mean_batch_fill"] >= 4.0 and work_reduction > 1.0
            ),
        },
    }
    print(
        f"[run_bench] serving: sequential {results['sequential']['qps']} QPS "
        f"| burst {results['burst']['qps']} QPS at fill "
        f"{results['burst']['batch_fill']} "
        f"({results['burst']['work_per_request_reduction']}x less work/req) | "
        f"closed-loop p99 {closed_latency['p99_ms']}ms | open-loop "
        f"rejected {open_stats['rejected']} miss-rate "
        f"{results['open_loop']['deadline_miss_rate']}",
        flush=True,
    )
    print(
        f"[run_bench] serving coalesced ≡ sequential replay: {equivalent} "
        f"({len(logs)} requests replayed)",
        flush=True,
    )
    return results


def bench_durability(args, dataset) -> dict:
    """Crash-safe serving-state costs: warm-start loads and journal replay.

    One index is fitted and archived once (format v6).  Loading it back is
    timed twice — materialized (``cold_load``) and memory-mapped
    (``mmap_load``), whose ratio is the warm-start speedup the zero-copy
    layout buys.  A journal-attached copy then absorbs a fixed mutation
    workload (insert/delete batches); reopening with ``journal=True``
    replays those records, and the replay throughput is derived from the
    extra time that reopen costs over a plain load.  The replayed
    searcher's batch answers must be bit-identical to the in-memory
    mutated searcher (``recovery_bit_identical``) — the crash-recovery
    contract, enforced as a hard gate in ``main``.
    """
    import shutil
    import tempfile

    from repro.io.persistence import load_searcher, save_searcher

    data, queries = dataset.data, dataset.queries
    k, nprobe = args.k, args.nprobe
    check_queries = queries[: min(50, len(queries))]
    rng = np.random.default_rng(args.seed + 1)
    batch_rows = 25 if args.small else 100
    n_insert_batches, n_delete_batches = 10, 5

    searcher = IVFQuantizedSearcher(
        "rabitq", rabitq_config=RaBitQConfig(seed=0), rng=args.seed
    ).fit(data)
    code_bytes = _code_bytes_per_vector(searcher)
    tmp = Path(tempfile.mkdtemp(prefix="run_bench_durability_"))
    try:
        archive = tmp / "idx.rbq"
        save_searcher(searcher, archive)
        del searcher
        archive_mb = archive.stat().st_size / 2**20

        cold_seconds = _timeit(lambda: load_searcher(archive), repeat=3)
        mmap_seconds = _timeit(
            lambda: load_searcher(archive, mmap=True), repeat=3
        )

        # Journal a fixed mutation workload against the archive.
        live = load_searcher(archive, journal=True)
        n_records = 0
        for i in range(n_insert_batches):
            live.insert(rng.standard_normal((batch_rows, data.shape[1])))
            n_records += 1
            if i < n_delete_batches:
                alive = live.live_ids
                live.delete(
                    rng.choice(alive, size=min(50, alive.shape[0] // 4),
                               replace=False)
                )
                n_records += 1
        live_batch = live.search_batch(check_queries, k, nprobe=nprobe)

        # Replay is idempotent (the journal is never consumed), so the
        # reopen can be timed best-of-N like every other measurement.
        replay_total = _timeit(
            lambda: load_searcher(archive, journal=True), repeat=3
        )
        replay_seconds = max(replay_total - cold_seconds, 1e-9)

        recovered = load_searcher(archive, journal=True)
        recovered_batch = recovered.search_batch(
            check_queries, k, nprobe=nprobe
        )
        identical = all(
            np.array_equal(a.ids, b.ids)
            and np.array_equal(a.distances, b.distances)
            and a.n_exact == b.n_exact
            for a, b in zip(recovered_batch, live_batch)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = {
        "archive_mb": round(archive_mb, 2),
        "code_bytes_per_vector": code_bytes,
        "cold_load_seconds": round(cold_seconds, 4),
        "mmap_load_seconds": round(mmap_seconds, 4),
        "warm_start_speedup": round(cold_seconds / mmap_seconds, 2),
        "journal": {
            "n_records": n_records,
            "rows_per_insert": batch_rows,
            "replay_seconds": round(replay_seconds, 4),
            "records_per_second": round(n_records / replay_seconds, 1),
        },
        "recovery_bit_identical": bool(identical),
    }
    print(
        f"[run_bench] durability: cold load {cold_seconds * 1e3:.1f}ms | "
        f"mmap load {mmap_seconds * 1e3:.1f}ms "
        f"({results['warm_start_speedup']}x warm-start) | replay "
        f"{results['journal']['records_per_second']} records/s | "
        f"recovery bit-identical: {identical}",
        flush=True,
    )
    return results


def bench_similarity(args, dataset, metric: str) -> dict:
    """MIPS / cosine workload: metric-generic searcher vs. metric ground truth.

    The same vectors and queries as the L2 benchmark, served through a
    ``metric="ip"`` / ``metric="cosine"`` searcher; recall is measured
    against brute-force ground truth computed under the *same* metric
    (descending-score convention, see ``repro.datasets.ground_truth``).
    """
    from repro.datasets.ground_truth import brute_force_ground_truth

    data, queries = dataset.data, dataset.queries
    k, nprobe = args.k, args.nprobe

    gt_start = time.perf_counter()
    ground_truth = brute_force_ground_truth(data, queries, k, metric=metric)
    gt_seconds = time.perf_counter() - gt_start

    start = time.perf_counter()
    searcher = IVFQuantizedSearcher(
        "rabitq", rabitq_config=RaBitQConfig(seed=0), rng=0, metric=metric
    ).fit(data)
    fit_seconds = time.perf_counter() - start

    searcher.search_batch(queries[: min(16, len(queries))], k, nprobe=nprobe)
    for query in queries[: min(16, len(queries))]:
        searcher.search(query, k, nprobe=nprobe)

    n_single = min(args.n_queries, args.n_single)
    single_latency = LatencyRecorder()
    start = time.perf_counter()
    for query in queries[:n_single]:
        t0 = time.perf_counter()
        searcher.search(query, k, nprobe=nprobe)
        single_latency.record(time.perf_counter() - t0)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = searcher.search_batch(queries, k, nprobe=nprobe)
    batch_seconds = time.perf_counter() - start

    recall = recall_at_k([r.ids for r in batch], ground_truth, k)
    results = {
        "metric": metric,
        "fit_seconds": round(fit_seconds, 3),
        "code_bytes_per_vector": _code_bytes_per_vector(searcher),
        "ground_truth_seconds": round(gt_seconds, 3),
        "single_query": {
            "n_queries": n_single,
            "seconds": round(single_seconds, 4),
            "qps": round(n_single / single_seconds, 1),
            "latency_ms": single_latency.summary_ms(),
        },
        "batch": {
            "n_queries": args.n_queries,
            "seconds": round(batch_seconds, 4),
            "qps": round(args.n_queries / batch_seconds, 1),
        },
        f"recall_at_{k}": round(float(recall), 4),
        "avg_candidates_per_query": round(
            batch.total_candidates / len(batch), 1
        ),
        "avg_exact_per_query": round(batch.total_exact / len(batch), 1),
    }
    print(
        f"[run_bench] {metric}: single {results['single_query']['qps']} QPS "
        f"| batch {results['batch']['qps']} QPS | recall@{k} {recall:.4f}",
        flush=True,
    )
    return results


#: Pinned recall floor for the Pareto-sweep gate: the ``B=4`` multi-bit
#: RaBitQ point must reach this recall@k.  Both tiers run the sweep on a
#: ``sqrt(n)``-cluster IVF — a coverage-rich operating point where the
#: estimator, not probe coverage, bounds recall (the headline benchmark's
#: default geometry probes ~1% of its clusters, capping recall near 0.63
#: regardless of code width).
PARETO_RECALL_FLOOR = 0.80


def bench_pareto(args, dataset) -> dict:
    """Recall / QPS / code-size Pareto sweep: multi-bit RaBitQ vs. baselines.

    Sweeps the extended (multi-bit) RaBitQ code width ``B ∈ {1, 2, 4, 8}``
    and the seed baselines (PQ 16x8, OPQ 16x8, SQ8) through the same IVF
    geometry and probe budget, recording recall@k, batch QPS and code bytes
    per vector for every point.  Every fit is seeded explicitly, so the
    sweep — baselines included — is deterministic run to run.  Gates
    (stored per run, enforced in ``main``): RaBitQ recall@k must be
    non-decreasing in ``B``; at the full tier it must be strictly higher at
    ``B=4`` than at ``B=1``; and the ``B=4`` point must clear
    ``PARETO_RECALL_FLOOR``.
    """
    from repro.baselines.opq import OptimizedProductQuantizer
    from repro.baselines.pq import ProductQuantizer
    from repro.baselines.scalar import ScalarQuantizer
    from repro.index.rerank import TopCandidateReranker

    data, queries = dataset.data, dataset.queries
    k, nprobe = args.k, args.nprobe
    n, dim = data.shape
    n_clusters = max(16, int(round(n**0.5)))
    # External quantizers carry no error bound, so their searchers re-rank
    # a fixed top-candidate budget comparable to the error-bound
    # re-ranker's typical exact-evaluation count on this workload.
    rerank_budget = max(100, 10 * k)

    def _measure(label, family, make_searcher, code_bytes_fn):
        start = time.perf_counter()
        searcher = make_searcher().fit(data)
        fit_seconds = time.perf_counter() - start
        searcher.search_batch(
            queries[: min(16, len(queries))], k, nprobe=nprobe
        )
        start = time.perf_counter()
        batch = searcher.search_batch(queries, k, nprobe=nprobe)
        seconds = time.perf_counter() - start
        recall = recall_at_k([r.ids for r in batch], dataset.ground_truth, k)
        entry = {
            "label": label,
            "family": family,
            "code_bytes_per_vector": int(code_bytes_fn(searcher)),
            "fit_seconds": round(fit_seconds, 3),
            "batch_qps": round(len(queries) / seconds, 1),
            f"recall_at_{k}": round(float(recall), 4),
        }
        print(
            f"[run_bench] pareto {label}: recall@{k} "
            f"{entry[f'recall_at_{k}']:.4f} | {entry['batch_qps']} QPS | "
            f"{entry['code_bytes_per_vector']} B/vec (fit {fit_seconds:.1f}s)",
            flush=True,
        )
        return entry

    sweep = []
    for bits in (1, 2, 4, 8):
        entry = _measure(
            f"rabitq_b{bits}",
            "rabitq",
            lambda bits=bits: IVFQuantizedSearcher(
                "rabitq",
                n_clusters=n_clusters,
                rabitq_config=RaBitQConfig(seed=args.seed, bits=bits),
                rng=args.seed,
            ),
            _code_bytes_per_vector,
        )
        entry["bits"] = bits
        sweep.append(entry)

    segments = max(s for s in range(1, min(16, dim) + 1) if dim % s == 0)
    baselines = (
        (
            f"pq{segments}x8",
            "pq",
            lambda: ProductQuantizer(
                segments, 8, kmeans_iters=10, rng=args.seed
            ),
        ),
        (
            f"opq{segments}x8",
            "opq",
            lambda: OptimizedProductQuantizer(
                segments, 8, n_iterations=2, kmeans_iters=5, rng=args.seed
            ),
        ),
        ("sq8", "scalar", lambda: ScalarQuantizer(8)),
    )
    for label, family, make_quantizer in baselines:
        quantizer = make_quantizer()
        sweep.append(
            _measure(
                label,
                family,
                lambda q=quantizer: IVFQuantizedSearcher(
                    "external",
                    external_quantizer=q,
                    n_clusters=n_clusters,
                    reranker=TopCandidateReranker(rerank_budget),
                    rng=args.seed,
                ),
                lambda _s, q=quantizer: q.code_size_bits() // 8,
            )
        )

    recall_key = f"recall_at_{k}"
    by_bits = {
        e["bits"]: e[recall_key] for e in sweep if e["family"] == "rabitq"
    }
    recalls = [by_bits[b] for b in sorted(by_bits)]
    gates = {
        "recall_non_decreasing_in_bits": all(
            b >= a for a, b in zip(recalls, recalls[1:])
        ),
        "b4_clears_floor": by_bits[4] >= PARETO_RECALL_FLOOR,
    }
    if not args.small:
        gates["b4_strictly_above_b1"] = by_bits[4] > by_bits[1]
    print(f"[run_bench] pareto gates: {gates}", flush=True)
    return {
        "metric": "l2",
        "n_clusters": n_clusters,
        "nprobe": nprobe,
        "rerank_budget": rerank_budget,
        "recall_floor": PARETO_RECALL_FLOOR,
        "sweep": sweep,
        "gates": gates,
    }


def bench_large(args) -> dict:
    """Million-vector tier: memmapped data, probe cost and end-to-end QPS.

    The dataset is materialized once as a float32 ``.npy`` under
    ``--large-cache`` (chunk-wise generation — no full-size array is ever
    resident) and memory-mapped from then on; exact L2 ground truth is
    computed by streaming the file in row blocks.  KMeans trains on a
    ``--large-kmeans-sample`` subsample and assignment runs chunked, so
    the fit stays tractable at a million rows on one CPU.

    Measured: probe wall-clock, probe keys evaluated per query, end-to-end
    batch QPS and recall@k.  Hard gate (enforced in ``main``):

    * ``rss_bounded`` — peak RSS must stay under a pinned affine bound of
      the on-disk dataset size (memmap discipline, not residency).
    """
    import resource

    from repro.datasets.memmap import (
        chunked_ground_truth,
        generate_memmap_dataset,
        memmap_queries,
    )
    from repro.index.ivf import STAT_KEY_EVALS

    n, dim = args.large_n, args.large_dim
    n_queries, k = args.large_queries, args.k
    nprobe = args.large_nprobe
    cache = Path(args.large_cache)
    dataset_path = cache / f"gaussian_{n}x{dim}_seed{args.seed}.npy"

    start = time.perf_counter()
    data = generate_memmap_dataset(dataset_path, n, dim, seed=args.seed)
    generate_seconds = time.perf_counter() - start
    dataset_mb = dataset_path.stat().st_size / 2**20
    queries = memmap_queries(n_queries, dim, seed=args.seed)
    print(
        f"[run_bench] large: dataset {n}x{dim} float32 "
        f"({dataset_mb:.0f} MiB on disk, generated/validated in "
        f"{generate_seconds:.1f}s)",
        flush=True,
    )

    start = time.perf_counter()
    ground_truth = chunked_ground_truth(data, queries, k)
    gt_seconds = time.perf_counter() - start
    print(f"[run_bench] large: ground truth in {gt_seconds:.1f}s", flush=True)

    start = time.perf_counter()
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=args.large_clusters,
        rabitq_config=RaBitQConfig(seed=0),
        rng=args.seed,
    ).fit(data, kmeans_sample_size=args.large_kmeans_sample)
    fit_seconds = time.perf_counter() - start
    ivf = searcher.ivf
    n_clusters = ivf.centroids.shape[0]
    print(
        f"[run_bench] large: fit {fit_seconds:.1f}s ({n_clusters} clusters, "
        f"kmeans on {min(args.large_kmeans_sample, n)} rows)",
        flush=True,
    )

    stats: dict = {}
    start = time.perf_counter()
    for query in queries:
        ivf.probe(query, nprobe, stats=stats)
    seconds = time.perf_counter() - start
    keys = stats[STAT_KEY_EVALS]
    probe = {
        "seconds": round(seconds, 4),
        "probes_per_second": round(n_queries / seconds, 1),
        "keys_per_query": round(keys / n_queries, 1),
        "keys_per_second": round(keys / seconds, 1),
    }
    print(
        f"[run_bench] large: probe {probe['probes_per_second']} probes/s, "
        f"{probe['keys_per_query']} keys/query",
        flush=True,
    )

    start = time.perf_counter()
    batch = searcher.search_batch(queries, k, nprobe=nprobe)
    seconds = time.perf_counter() - start
    recall = float(recall_at_k([r.ids for r in batch], ground_truth, k))
    end_to_end = {
        "batch_qps": round(n_queries / seconds, 1),
        f"recall_at_{k}": round(recall, 4),
    }
    print(
        f"[run_bench] large: end-to-end {end_to_end['batch_qps']} QPS, "
        f"recall@{k} {recall:.4f}",
        flush=True,
    )

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_bound_mb = 2048 + 12 * dataset_mb
    rss_bounded = peak_rss_mb <= rss_bound_mb
    print(
        f"[run_bench] large: peak RSS {peak_rss_mb:.0f} MiB "
        f"(bound {rss_bound_mb:.0f})",
        flush=True,
    )
    return {
        "n": n,
        "dim": dim,
        "n_queries": n_queries,
        "k": k,
        "nprobe": nprobe,
        "n_clusters": n_clusters,
        "kmeans_sample_size": args.large_kmeans_sample,
        "dataset_mb": round(dataset_mb, 1),
        "generate_seconds": round(generate_seconds, 2),
        "ground_truth_seconds": round(gt_seconds, 2),
        "fit_seconds": round(fit_seconds, 2),
        # The committed records key these by probe strategy; "exact" is
        # the only one.
        "probe": {"exact": probe},
        "end_to_end": {"exact": end_to_end},
        "peak_rss_mb": round(peak_rss_mb, 1),
        "rss_bound_mb": round(rss_bound_mb, 1),
        "gates": {"rss_bounded": bool(rss_bounded)},
    }


def bench_kernels(args) -> dict:
    """Micro-benchmarks of the packed-bit and estimation kernels."""
    from repro.core import bitops
    from repro.core.estimator import estimate_distances

    rng = np.random.default_rng(args.seed)
    n_codes, n_bits = (20_000, 128) if not args.small else (5_000, 128)
    bits = rng.integers(0, 2, size=(n_codes, n_bits)).astype(np.uint8)
    packed = bitops.pack_bits(bits)
    plane_values = rng.integers(0, 16, size=n_bits).astype(np.uint64)
    planes = bitops.bitplanes_from_uint(plane_values, 4)

    out = {
        "n_codes": n_codes,
        "n_bits": n_bits,
        "pack_bits_seconds": _timeit(lambda: bitops.pack_bits(bits)),
        "unpack_bits_seconds": _timeit(
            lambda: bitops.unpack_bits(packed, n_bits)
        ),
        "binary_dot_uint_seconds": _timeit(
            lambda: bitops.binary_dot_uint(packed, planes)
        ),
    }

    quantized_dot = rng.normal(size=n_codes)
    alignments = rng.uniform(0.5, 1.0, size=n_codes)
    norms = rng.uniform(0.5, 2.0, size=n_codes)
    out["estimate_distances_seconds"] = _timeit(
        lambda: estimate_distances(
            quantized_dot, alignments, norms, 1.0, n_bits, 1.9
        )
    )

    try:  # Present only on arena-enabled builds.
        from repro.core.estimator import build_code_consts, fused_estimate

        consts = build_code_consts(
            alignments, norms, bitops.popcount_total(packed), n_bits, 1.9
        )
        out["fused_estimate_seconds"] = _timeit(
            lambda: fused_estimate(quantized_dot, consts, 1.0)
        )
    except ImportError:
        pass

    out = {
        key: (round(val, 6) if isinstance(val, float) else val)
        for key, val in out.items()
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="data size")
    parser.add_argument("--n-queries", type=int, default=1000)
    parser.add_argument(
        "--n-single",
        type=int,
        default=500,
        help="queries timed in the sequential loop (<= --n-queries)",
    )
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--nprobe", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--small",
        action="store_true",
        help="CI-scale sizes (10k vectors, 200 queries, nprobe 8)",
    )
    parser.add_argument("--label", default="after")
    parser.add_argument(
        "--out", default="benchmarks/results/BENCH_ann.json"
    )
    parser.add_argument(
        "--check",
        default=None,
        help="baseline JSON; exit 1 when single-query QPS regresses",
    )
    parser.add_argument("--check-label", default="after")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum tolerated fractional single-query QPS drop",
    )
    parser.add_argument("--skip-kernels", action="store_true")
    parser.add_argument(
        "--skip-sharded",
        action="store_true",
        help="skip the shards x threads sweep of the sharded serving engine",
    )
    parser.add_argument(
        "--skip-similarity",
        action="store_true",
        help="skip the MIPS (metric='ip') and cosine workloads",
    )
    parser.add_argument(
        "--skip-durability",
        action="store_true",
        help="skip the warm-start / journal-replay durability benchmark",
    )
    parser.add_argument(
        "--skip-serving",
        action="store_true",
        help="skip the online-serving (micro-batching) benchmark",
    )
    parser.add_argument(
        "--skip-pareto",
        action="store_true",
        help="skip the multi-bit RaBitQ vs. baselines Pareto sweep",
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help=(
            "run ONLY the million-vector tier (memmapped data, probe cost "
            "and end-to-end QPS); writes BENCH_ann_large.json by default"
        ),
    )
    parser.add_argument(
        "--large-n", type=int, default=1_000_000,
        help="rows in the memmapped large-tier dataset",
    )
    parser.add_argument("--large-dim", type=int, default=128)
    parser.add_argument("--large-queries", type=int, default=64)
    parser.add_argument(
        "--large-clusters", type=int, default=4096,
        help="IVF cluster count for the large tier",
    )
    parser.add_argument(
        "--large-kmeans-sample", type=int, default=131_072,
        help="rows subsampled for KMeans training in the large tier",
    )
    parser.add_argument("--large-nprobe", type=int, default=32)
    parser.add_argument(
        "--large-cache", default="benchmarks/.cache",
        help="directory holding the generated memmapped dataset",
    )
    args = parser.parse_args(argv)

    if args.large and args.out == parser.get_default("out"):
        args.out = "benchmarks/results/BENCH_ann_large.json"

    if args.small:
        args.n = min(args.n, 10_000)
        args.n_queries = min(args.n_queries, 200)
        args.n_single = min(args.n_single, 200)
        args.nprobe = 8

    run = {
        "config": {
            "n": args.n,
            "dim": 128,
            "n_queries": args.n_queries,
            "k": args.k,
            "nprobe": args.nprobe,
            "seed": args.seed,
            "small": bool(args.small),
            "metric": "l2",
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if args.large:
        run["config"].update(
            n=args.large_n,
            dim=args.large_dim,
            n_queries=args.large_queries,
            nprobe=args.large_nprobe,
            large=True,
        )
        run["results"] = {"large": bench_large(args)}
        out_path = Path(args.out)
        doc = {"runs": {}}
        if out_path.exists():
            try:
                doc = json.loads(out_path.read_text())
            except (OSError, ValueError):
                print(f"[run_bench] overwriting unreadable {out_path}")
                doc = {"runs": {}}
        doc.setdefault("runs", {})[args.label] = run
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"[run_bench] wrote {out_path}")
        gates = run["results"]["large"]["gates"]
        failed = sorted(name for name, ok in gates.items() if not ok)
        if failed:
            print(f"[run_bench] FAIL: large-tier gate(s) failed: {failed}")
            return 1
        return 0

    dataset = _load_bench_dataset(args)
    run["results"] = bench_ann(args, dataset)
    if not args.skip_sharded:
        run["results"]["sharded"] = bench_sharded(args, dataset)
    if not args.skip_similarity:
        run["results"]["mips"] = bench_similarity(args, dataset, "ip")
        run["results"]["cosine"] = bench_similarity(args, dataset, "cosine")
    if not args.skip_durability:
        run["results"]["durability"] = bench_durability(args, dataset)
    if not args.skip_serving:
        run["results"]["serving"] = bench_serving(args, dataset)
    if not args.skip_pareto:
        run["results"]["pareto"] = bench_pareto(args, dataset)
    if not args.skip_kernels:
        run["kernels"] = bench_kernels(args)

    out_path = Path(args.out)
    doc = {"runs": {}}
    if out_path.exists():
        try:
            doc = json.loads(out_path.read_text())
        except (OSError, ValueError):
            print(f"[run_bench] overwriting unreadable {out_path}")
            doc = {"runs": {}}
    doc.setdefault("runs", {})[args.label] = run
    if "before" in doc["runs"] and "after" in doc["runs"]:
        before = doc["runs"]["before"]["results"]
        after = doc["runs"]["after"]["results"]
        doc["speedup"] = {
            "single_query_qps": round(
                after["single_query"]["qps"] / before["single_query"]["qps"], 2
            ),
            "batch_qps": round(
                after["batch"]["qps"] / before["batch"]["qps"], 2
            ),
            "recall_at_10_delta": round(
                after["recall_at_10"] - before["recall_at_10"], 4
            ),
        }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[run_bench] wrote {out_path}")

    sharded = run["results"].get("sharded")
    if sharded is not None:
        broken = [
            entry for entry in sharded["sweep"]
            if not entry["equivalent_to_serial"]
        ]
        if broken:
            print(
                "[run_bench] FAIL: sharded parallel results diverged from "
                f"serial at shard counts "
                f"{sorted({e['shards'] for e in broken})}"
            )
            return 1

    durability = run["results"].get("durability")
    if durability is not None and not durability["recovery_bit_identical"]:
        print(
            "[run_bench] FAIL: journal-replayed searcher diverged from the "
            "in-memory mutated searcher (recovery must be bit-identical)"
        )
        return 1

    pareto = run["results"].get("pareto")
    if pareto is not None:
        failed = sorted(
            name for name, ok in pareto["gates"].items() if not ok
        )
        if failed:
            print(f"[run_bench] FAIL: pareto gate(s) failed: {failed}")
            return 1

    serving = run["results"].get("serving")
    if serving is not None:
        if not serving["gates"]["coalesced_equivalent"]:
            print(
                "[run_bench] FAIL: coalesced serving responses diverged from "
                "the sequential search replay (must be bit-identical)"
            )
            return 1
        if not serving["gates"]["work_per_request_reduced"]:
            print(
                "[run_bench] FAIL: micro-batching did not reduce mean work "
                f"per request at batch fill >= 4 (fill "
                f"{serving['burst']['batch_fill']}, reduction "
                f"{serving['burst']['work_per_request_reduction']}x)"
            )
            return 1

    if args.check:
        baseline_doc = json.loads(Path(args.check).read_text())
        baseline = baseline_doc["runs"][args.check_label]
        base_cfg, cfg = baseline["config"], run["config"]
        for key in ("n", "n_queries", "k", "nprobe"):
            if base_cfg[key] != cfg[key]:
                print(
                    f"[run_bench] baseline config mismatch on {key!r}: "
                    f"{base_cfg[key]} != {cfg[key]}; regression check skipped"
                )
                return 0
        base_qps = baseline["results"]["single_query"]["qps"]
        got_qps = run["results"]["single_query"]["qps"]
        floor = (1.0 - args.max_regression) * base_qps
        print(
            f"[run_bench] regression gate: {got_qps} QPS vs baseline "
            f"{base_qps} QPS (floor {floor:.1f})"
        )
        if got_qps < floor:
            print("[run_bench] FAIL: single-query QPS regressed > "
                  f"{args.max_regression:.0%}")
            return 1

        def _one_shard_qps(results):
            section = results.get("sharded")
            if section is None:
                return None
            return next(
                (
                    entry["batch_qps"]
                    for entry in section["sweep"]
                    if entry["shards"] == 1 and entry["threads"] == 1
                ),
                None,
            )

        base_shard = _one_shard_qps(baseline["results"])
        got_shard = _one_shard_qps(run["results"])
        if base_shard is not None and got_shard is not None:
            floor = (1.0 - args.max_regression) * base_shard
            print(
                f"[run_bench] sharded regression gate (1 shard, batch): "
                f"{got_shard} QPS vs baseline {base_shard} QPS "
                f"(floor {floor:.1f})"
            )
            if got_shard < floor:
                print(
                    "[run_bench] FAIL: single-shard batch QPS regressed > "
                    f"{args.max_regression:.0%}"
                )
                return 1

        # Serving tail-latency gate: the coalescing engine's closed-loop
        # p99 must not blow up (present only when both runs measured it).
        # Tail percentiles are noisier than mean QPS, so the tolerated
        # regression is doubled relative to the throughput gates.
        base_serving = baseline["results"].get("serving")
        got_serving = run["results"].get("serving")
        if base_serving is not None and got_serving is not None:
            base_p99 = base_serving["closed_loop"]["latency_ms"]["p99_ms"]
            got_p99 = got_serving["closed_loop"]["latency_ms"]["p99_ms"]
            ceiling = (1.0 + 2.0 * args.max_regression) * base_p99
            print(
                f"[run_bench] serving p99 gate (closed loop): {got_p99} ms "
                f"vs baseline {base_p99} ms (ceiling {ceiling:.3f})"
            )
            if got_p99 > ceiling:
                print(
                    "[run_bench] FAIL: closed-loop p99 latency regressed > "
                    f"{2 * args.max_regression:.0%}"
                )
                return 1

        # MIPS workload gate: the metric-generic path must not silently
        # regress either (present only when both runs measured it).
        base_mips = baseline["results"].get("mips")
        got_mips = run["results"].get("mips")
        if base_mips is not None and got_mips is not None:
            base_qps = base_mips["batch"]["qps"]
            got_qps = got_mips["batch"]["qps"]
            floor = (1.0 - args.max_regression) * base_qps
            print(
                f"[run_bench] MIPS regression gate (batch): {got_qps} QPS "
                f"vs baseline {base_qps} QPS (floor {floor:.1f})"
            )
            if got_qps < floor:
                print(
                    "[run_bench] FAIL: MIPS batch QPS regressed > "
                    f"{args.max_regression:.0%}"
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
