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

The output file accumulates one entry per ``--label`` under ``"runs"``.
Serving, durability, per-phase and end-to-end regression measurements live
in the repo benchmark (``perf/``, ``BENCHMARK.json``); this script keeps
what that cannot hold in 16 s.

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
* ``pareto`` — the multi-bit recall/QPS/code-size Pareto sweep: extended
  RaBitQ at ``B ∈ {1, 2, 4, 8}`` bits per dimension against the PQ / OPQ /
  SQ8 baselines, all through the same ``sqrt(n)``-cluster IVF geometry and
  probe budget, with every fit explicitly seeded.  Hard gates: RaBitQ
  recall@k must be non-decreasing in ``B`` (strictly higher at ``B=4``
  than at ``B=1`` on the full tier) and the ``B=4`` point must clear
  ``PARETO_RECALL_FLOOR``.
* ``kernels`` — micro-benchmarks of the packed-bit kernels at fixed sizes.
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
    return searcher.bits * searcher.arena.code_length // 8


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
    }
    print(
        f"[run_bench] single {results['single_query']['qps']} QPS | "
        f"batch {results['batch']['qps']} QPS | recall@{k} {recall:.4f}",
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
    from repro.experiments.ann_search import ivf_baseline_search
    from repro.index.flat import FlatIndex
    from repro.index.ivf import IVFIndex

    data, queries = dataset.data, dataset.queries
    k, nprobe = args.k, args.nprobe
    n, dim = data.shape
    n_clusters = max(16, int(round(n**0.5)))
    # Baseline quantizers carry no error bound, so their pipelines re-rank
    # a fixed top-candidate budget comparable to the error-bound
    # re-ranker's typical exact-evaluation count on this workload.
    rerank_budget = max(100, 10 * k)

    def _measure(label, family, fit):
        """Time ``fit()`` -> ``(search, code_bytes)``, then ``search``."""
        start = time.perf_counter()
        search, code_bytes = fit()
        fit_seconds = time.perf_counter() - start
        search(queries[: min(16, len(queries))])
        start = time.perf_counter()
        retrieved = search(queries)
        seconds = time.perf_counter() - start
        recall = recall_at_k(retrieved, dataset.ground_truth, k)
        entry = {
            "label": label,
            "family": family,
            "code_bytes_per_vector": int(code_bytes),
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

    def _fit_rabitq(bits):
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=n_clusters,
            rabitq_config=RaBitQConfig(seed=args.seed, bits=bits),
            rng=args.seed,
        ).fit(data)

        def search(qs):
            return [r.ids for r in searcher.search_batch(qs, k, nprobe=nprobe)]

        return search, _code_bytes_per_vector(searcher)

    def _fit_baseline(quantizer):
        ivf = IVFIndex(n_clusters, rng=args.seed).fit(data)
        flat = FlatIndex(data)
        quantizer.fit(data)

        def search(qs):
            results = ivf_baseline_search(
                ivf,
                flat,
                quantizer,
                qs,
                k,
                nprobe=nprobe,
                rerank_count=rerank_budget,
            )
            return [ids for ids, _, _ in results]

        return search, quantizer.code_size_bits() // 8

    sweep = []
    for bits in (1, 2, 4, 8):
        entry = _measure(f"rabitq_b{bits}", "rabitq", lambda: _fit_rabitq(bits))
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
        sweep.append(
            _measure(label, family, lambda: _fit_baseline(make_quantizer()))
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
    planes = bitops.bitplanes_from_uint_batch(plane_values[None, :], 4)

    out = {
        "n_codes": n_codes,
        "n_bits": n_bits,
        "pack_bits_seconds": _timeit(lambda: bitops.pack_bits(bits)),
        "unpack_bits_seconds": _timeit(
            lambda: bitops.unpack_bits(packed, n_bits)
        ),
        # One query; the kernel picks popcount or GEMM by size.
        "binary_dot_uint_batch_seconds": _timeit(
            lambda: bitops.binary_dot_uint_batch(packed, planes)
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
        "--skip-similarity",
        action="store_true",
        help="skip the MIPS (metric='ip') and cosine workloads",
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
    if not args.skip_similarity:
        run["results"]["mips"] = bench_similarity(args, dataset, "ip")
        run["results"]["cosine"] = bench_similarity(args, dataset, "cosine")
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
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[run_bench] wrote {out_path}")

    pareto = run["results"].get("pareto")
    if pareto is not None:
        failed = sorted(
            name for name, ok in pareto["gates"].items() if not ok
        )
        if failed:
            print(f"[run_bench] FAIL: pareto gate(s) failed: {failed}")
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
