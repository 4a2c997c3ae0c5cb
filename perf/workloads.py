"""The four workloads: what runs, how it is cut into segments, what is checked.

Every workload drives public entry points only, in the repo's default
configuration (``estimation_mode="gemm"``, ``probe_strategy="exact"``,
unsharded, query cache off).  Work comes in *segments* of a fixed number of
operations; a run repeats whole segments until its time budget is used, and
every timing metric is the median over segments, so two builds are compared
on identical work however long each takes.  Each segment's timings are scaled
by the host pace measured around it (``perfhost``).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import RaBitQConfig, load_searcher, save_searcher
from repro.core.estimator import fused_estimate, n_consts_for
from repro.core.query import quantize_query_matrix
from repro.datasets import brute_force_ground_truth, load_dataset
from repro.index import IVFIndex, IVFQuantizedSearcher
from repro.io import default_journal_path
from repro.metrics import recall_at_k

import perfload
from perfhost import HostSpeed
from perfstats import percentile, quartiles
from perftrace import PROBE, RERANK, SEARCH, Tracer, closure_error, traced_search_path

DATASET = "sift"  # 128-d clustered Gaussian mixture, the repo's SIFT analogue
N_DATA = 20_000
N_CLUSTERS = 141  # ~ sqrt(N_DATA)
K = 10
NPROBE = 12  # recall@10 ~ 0.985 at B=1: a point one would deploy
SETUP_REPEATS = 3
RECOVER_REPEATS = 9
MIN_SEGMENTS = 4
MAX_SEGMENTS = 256
SEGMENT = "bench.segment"
CLOSURE_LIMIT = 0.10

INSERT = "index.searcher.insert"
DELETE = "index.searcher.delete"
COMPACT = "index.searcher.compact"
LOAD = "io.persistence.load"
SAVE = "io.persistence.save"


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tmp_dir: Path
    tracer: Tracer | None = None
    quick: bool = False  # a smoke run: one set-up, two segments at least


@dataclass
class Segment:
    """One fixed-work slice of the measured phase."""

    traced: bool
    wall_s: float  # the span throughput is computed over
    cpu_s: float
    ops: int
    latencies: dict[str, list[float]]  # seconds per call, by span name
    ids: list = field(default_factory=list)  # retrieved ids per query
    n_exact: list = field(default_factory=list)
    n_candidates: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    speed: float = 1.0  # host speed factor found around the segment (see perfhost)

    def per_s(self, count: int) -> float:
        """``count`` things done in this segment as a rate at the reference pace."""
        return count / self.wall_s / self.speed

    def ms(self, seconds: float) -> float:
        """A duration of this segment in milliseconds at the reference pace."""
        return seconds * 1e3 * self.speed


def result_ok(ids: np.ndarray, distances: np.ndarray) -> bool:
    """``k`` distinct ids, best first."""
    return (
        len(ids) == K
        and len(distances) == K
        and bool(np.all(np.diff(distances) >= 0.0))
        and len(set(ids.tolist())) == K
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


@contextmanager
def timed_method(cls, name: str):
    """Proxy a public method for the block; yields ``[seconds spent inside it]``.

    Used for the one layer boundary that only the program itself crosses:
    the coarse ``IVFIndex.fit`` inside ``IVFQuantizedSearcher.fit``.
    """
    original = getattr(cls, name)
    spent = [0.0]

    def proxy(*args, **kwargs):
        out, seconds = timed(original, *args, **kwargs)
        spent[0] += seconds
        return out

    setattr(cls, name, proxy)
    try:
        yield spent
    finally:
        setattr(cls, name, original)


class Workload:
    """Inputs, repeated set-up, segment loop and checks shared by all four."""

    name = ""
    why = ""
    bits = 1
    journaled = False
    n_queries = 0
    n_extra = 0
    recall_floor = 0.0

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layers: dict[str, float] = {}
        self.setup_samples: list[float] = []
        self.archive = ctx.tmp_dir / f"{self.name}.idx"
        self.searcher = None
        self.probe_stats: dict = {}
        self.host = HostSpeed()

    # -- inputs ---------------------------------------------------------

    def load(self) -> None:
        """Inputs are made from the seed; the program only ever sees them."""
        dataset, seconds = timed(
            load_dataset,
            DATASET,
            n_data=N_DATA + self.n_extra,
            n_queries=self.n_queries,
            rng=self.ctx.seed,
        )
        self.layers["datasets.generate_s"] = seconds
        self.data = dataset.data[:N_DATA]
        self.extra = dataset.data[N_DATA:]
        self.queries = np.ascontiguousarray(dataset.queries, dtype=np.float64)

    def ground_truth(self, data: np.ndarray, queries: np.ndarray) -> np.ndarray:
        truth, seconds = timed(brute_force_ground_truth, data, queries, K)
        self.layers["datasets.ground_truth_s"] = (
            self.layers.get("datasets.ground_truth_s", 0.0) + seconds
        )
        return truth

    # -- set-up ---------------------------------------------------------

    def fit(self) -> IVFQuantizedSearcher:
        return IVFQuantizedSearcher(
            "rabitq",
            n_clusters=N_CLUSTERS,
            rabitq_config=RaBitQConfig(seed=0),
            rng=self.ctx.seed,
            bits=self.bits,
        ).fit(self.data)

    def build(self) -> dict[str, float]:
        """One complete set-up: fit, save, load what will be served, warm up."""
        parts = {}
        with ExitStack() as stack:
            coarse = [0.0]
            if self.ctx.trace:  # the untraced run installs no proxy at all
                coarse = stack.enter_context(timed_method(IVFIndex, "fit"))
            fitted, parts["index.searcher.fit_s"] = timed(self.fit)
        # Part of fit_s, not one more part of the set-up.
        self.layers["substrates.kmeans.fit_s"] = coarse[0]
        _, parts["io.persistence.save_s"] = timed(save_searcher, fitted, self.archive)
        del fitted
        self.searcher, parts["io.persistence.load_s"] = timed(
            load_searcher, self.archive, journal=self.journaled
        )
        _, parts["bench.warmup_s"] = timed(self.warm_up)
        return parts

    def discard(self) -> None:
        self.searcher = None
        for path in (self.archive, default_journal_path(self.archive)):
            path.unlink(missing_ok=True)

    def setup(self) -> None:
        """Set up several times and keep every total: ``setup_s`` is their median.

        The traced run sets up once and reports the parts instead.
        """
        parts: dict[str, float] = {}
        for _ in range(1 if self.ctx.trace or self.ctx.quick else SETUP_REPEATS):
            self.discard()
            parts, speed = self.host.around(self.build)
            self.setup_samples.append(sum(parts.values()) * speed)
        self.layers.update(parts)

    def setup_layers(self) -> None:
        """Set-up costs that only the traced run takes apart."""
        self.layers["index.searcher.encode_s"] = (
            self.layers["index.searcher.fit_s"] - self.layers["substrates.kmeans.fit_s"]
        )
        _, self.layers["io.persistence.load_mmap_s"] = timed(
            load_searcher, self.archive, mmap=True
        )

    def warm_up(self) -> None:
        raise NotImplementedError

    # -- measured phase -------------------------------------------------

    def call(self, traced: bool, name: str, request, fn, *args, **kwargs):
        """Run ``fn`` and return ``(result, seconds)``; a span when traced."""
        if not traced:
            return timed(fn, *args, **kwargs)
        tracer = self.ctx.tracer
        with tracer.span(name, request) as index:
            out = fn(*args, **kwargs)
        _, start, end, _, _ = tracer.spans[index]
        return out, end - start

    def enclose(self, traced: bool, searcher) -> ExitStack:
        """The segment's root span, with the search-path proxies installed."""
        stack = ExitStack()
        if traced:
            stack.enter_context(
                traced_search_path(searcher, self.ctx.tracer, self.probe_stats)
            )
            stack.enter_context(self.ctx.tracer.span(SEGMENT))
        return stack

    def segment(self, traced: bool) -> Segment:
        raise NotImplementedError

    def run_segments(self, budget_s: float, limit: int = MAX_SEGMENTS) -> list[Segment]:
        """Whole segments until the budget is used; traced and untraced alternate."""
        segments: list[Segment] = []
        end = time.perf_counter() + budget_s
        at_least = 2 if self.ctx.quick else MIN_SEGMENTS
        while len(segments) < limit and (
            len(segments) < at_least or time.perf_counter() < end
        ):
            traced = self.ctx.trace and len(segments) % 2 == 0
            segment, segment.speed = self.host.around(self.segment, traced)
            segments.append(segment)
        return segments

    def check_results(self, segment: Segment, results) -> None:
        """Count the operations of a segment and those whose output is wrong."""
        self.attempted += len(results)
        for result in results:
            if not result_ok(result.ids, result.distances):
                self.failed += 1
            segment.ids.append(result.ids)
            segment.n_exact.append(int(result.n_exact))
            segment.n_candidates.append(int(result.n_candidates))

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # -- results --------------------------------------------------------

    def measure(self) -> dict[str, list[float]]:
        """End-to-end metrics (untraced run) as samples per metric."""
        raise NotImplementedError

    def measure_layers(self) -> dict[str, float]:
        """Per-layer metrics (traced run)."""
        raise NotImplementedError

    def restart(self) -> None:
        """What a restarted server does before it is of use: load (replaying
        the journal, if the workload keeps one) and answer its first queries."""
        self.searcher = load_searcher(self.archive, journal=self.journaled)
        self.warm_up()

    def stored_metrics(self) -> dict[str, list[float]]:
        """Memory, archive size and restart time of a read-only index."""
        arena = self.searcher.arena
        loads = []
        for _ in range(RECOVER_REPEATS):
            (_, seconds), speed = self.host.around(timed, self.restart)
            loads.append(seconds * speed)
        return {
            "mem_bytes_per_vector": [arena.memory_bytes() / arena.n_rows],
            "archive_bytes_per_vector": [
                os.path.getsize(self.archive) / self.searcher.n_total
            ],
            "recover_s": loads,
        }

    def common_metrics(self) -> dict[str, list[float]]:
        return {"setup_s": self.setup_samples, "peak_rss_mb": [peak_rss_mb()]}

    def search_path_layers(
        self, n_queries: int, n_exact: list[int], n_candidates: list[int]
    ) -> dict[str, float]:
        """Probe / estimate / rerank split of the traced search spans.

        Estimation is the search span's self time: query preparation, code
        estimation and candidate selection, which the program does not yet
        separate.  The counts are those of a fixed set of calls (the first
        traced segment, say), which a given seed replays, so they repeat
        exactly.
        """
        tracer = self.ctx.tracer
        search = tracer.total(SEARCH)
        probe = tracer.total(PROBE)
        rerank = tracer.total(RERANK)
        estimate = search - probe - rerank
        per_query_ms = 1e3 / n_queries
        exact = statistics.fmean(n_exact)
        return {
            "index.ivf.probe_ms_per_query": probe * per_query_ms,
            "index.ivf.keys_per_query": self.probe_stats.get("n_key_evals", 0) / n_queries,
            "index.ivf.probe_share": probe / search,
            "index.rerank.ms_per_query": rerank * per_query_ms,
            "index.rerank.exact_per_query": exact,
            "index.rerank.useful_frac": K / exact,
            "index.rerank.share": rerank / search,
            "index.searcher.candidates_per_query": statistics.fmean(n_candidates),
            "index.searcher.estimate_ms_per_query": estimate * per_query_ms,
            "index.searcher.estimate_share": estimate / search,
        }

    def segment_layers(self, segments: list[Segment]) -> dict[str, float]:
        """Tracing overhead, closure and CPU cost from a traced/untraced mix."""
        traced = [s.wall_s / s.ops for s in segments if s.traced]
        plain = [s.wall_s / s.ops for s in segments if not s.traced]
        untraced = [s for s in segments if not s.traced]
        closure = closure_error(self.ctx.tracer.spans, SEGMENT)
        self.require(
            closure <= CLOSURE_LIMIT,
            f"trace does not close: {closure:.3f} of the segment spans unexplained",
        )
        return {
            # Best segment against best segment: the host's interference is
            # larger than the overhead being measured.
            "bench.trace_overhead_frac": min(traced) / min(plain) - 1.0,
            "bench.closure_error_frac": closure,
            "bench.host_speed": statistics.median(self.host.samples),
            "bench.segments": float(len(segments)),
            "index.searcher.cpu_ms_per_query": 1e3
            * sum(s.cpu_s for s in untraced)
            / sum(s.ops for s in untraced),
        }


def kernel_layers(searcher, query: np.ndarray) -> dict[str, float]:
    """The three kernels of one query, timed alone at the workload's own shapes."""
    arena = searcher.arena
    length = arena.code_length
    cluster_ids = [int(c) for c in searcher.ivf.probe(query, NPROBE)]
    rng = np.random.default_rng(0)
    rotated = rng.standard_normal((NPROBE, length))
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    query_bits = searcher.rabitq_config.query_bits

    def best_of(fn, repeats: int = 30) -> float:
        return min(timed(fn)[1] for _ in range(repeats))

    quantize = best_of(
        lambda: quantize_query_matrix(rotated, query_bits, rng=rng, with_bitplanes=False)
    )
    operand = rng.integers(0, 1 << query_bits, size=length).astype(np.float64)
    blocks = [arena.cluster_bits(cid) for cid in cluster_ids]
    n_codes = sum(block.shape[0] for block in blocks)
    gemm = best_of(lambda: [block.astype(np.float64) @ operand for block in blocks])
    consts = np.hstack([arena.cluster_consts(cid) for cid in cluster_ids])
    consts = np.ascontiguousarray(consts[: n_consts_for("l2")])
    dots = rng.standard_normal(n_codes)
    norms = np.ones(n_codes)
    rounding = 0.0125 if searcher.bits > 1 else None
    fused = best_of(
        lambda: fused_estimate(dots, consts, norms, query_rounding=rounding)
    )
    return {
        "core.quantize_query_us": quantize * 1e6,
        "core.fused_estimate_us_per_kcode": fused * 1e6 / (n_codes / 1000.0),
        "index.arena.gemm_us_per_kcode": gemm * 1e6 / (n_codes / 1000.0),
        "index.arena.bytes": float(arena.memory_bytes()),
        "index.arena.rows": float(arena.n_rows),
    }


def batch_sweep_layers(searcher, queries: np.ndarray) -> dict[str, float]:
    """``search_batch`` cost per query against batch size: the curve the
    "sequential is batch at size 1" refactor has to flatten."""
    out = {}
    for size in (1, 4, 16, 64, 256):
        pool = np.resize(queries, (max(64, 2 * size), queries.shape[1]))

        def sweep():
            for lo in range(0, pool.shape[0], size):
                searcher.search_batch(pool[lo : lo + size], K, nprobe=NPROBE)

        best = min(timed(sweep)[1] for _ in range(2))
        out[f"index.searcher.batch_ms_per_query_b{size}"] = best * 1e3 / pool.shape[0]
    return out


class SearchWorkload(Workload):
    """A closed loop of one caller over a fixed query pool; a segment is one pass."""

    def load(self) -> None:
        super().load()
        self.truth = self.ground_truth(self.data, self.queries)

    def run_queries(self, traced: bool) -> tuple[list[float], list]:
        raise NotImplementedError

    def segment(self, traced: bool) -> Segment:
        cpu = time.process_time()
        start = time.perf_counter()
        with self.enclose(traced, self.searcher):
            latencies, results = self.run_queries(traced)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        segment = Segment(traced, wall, cpu, len(results), {SEARCH: latencies})
        self.check_results(segment, results)
        return segment

    def query_latencies(self, segment: Segment):
        """Seconds each query of the segment waited for its answer."""
        return segment.latencies[SEARCH]

    def recall(self, segments: list[Segment]) -> float:
        ids = [row for s in segments for row in s.ids]
        truth = np.tile(self.truth, (len(segments), 1))
        recall = recall_at_k(ids, truth, K)
        self.require(
            recall >= self.recall_floor,
            f"recall@{K} {recall:.4f} below the floor {self.recall_floor}",
        )
        return recall

    def measure(self) -> dict[str, list[float]]:
        segments = self.run_segments(self.ctx.seconds)
        waits = [self.query_latencies(s) for s in segments]
        return {
            "qps": [s.per_s(s.ops) for s in segments],
            "p50_ms": [s.ms(statistics.median(w)) for s, w in zip(segments, waits)],
            "p99_ms": [s.ms(percentile(w, 99.0)) for s, w in zip(segments, waits)],
            "recall_at_10": [self.recall(segments)],
            **self.stored_metrics(),
            **self.common_metrics(),
        }

    def measure_layers(self) -> dict[str, float]:
        self.setup_layers()
        segments = self.run_segments(self.ctx.seconds / 2.0)
        traced = [s for s in segments if s.traced]
        self.recall(segments)
        return {
            **self.layers,
            **self.search_path_layers(
                sum(s.ops for s in traced), traced[0].n_exact, traced[0].n_candidates
            ),
            **self.segment_layers(segments),
            **kernel_layers(self.searcher, self.queries[0]),
            **batch_sweep_layers(self.searcher, self.queries),
        }


class QuerySingle(SearchWorkload):
    name = "query_single"
    why = (
        "One caller, sequential search() at B=1: per-call overhead, query preparation "
        "and rerank (~190 exact distances/query) carry the time; kernel gains show least here."
    )
    bits = 1
    n_queries = 1000  # a segment's p99 has ten samples beyond it
    recall_floor = 0.97

    def warm_up(self) -> None:
        for query in self.queries[:32]:
            self.searcher.search(query, K, nprobe=NPROBE)

    def run_queries(self, traced: bool):
        search = self.searcher.search
        latencies, results = [], []
        for i, query in enumerate(self.queries):
            result, seconds = self.call(traced, SEARCH, i, search, query, K, nprobe=NPROBE)
            latencies.append(seconds)
            results.append(result)
        return latencies, results


class QueryBatch(SearchWorkload):
    name = "query_batch"
    why = (
        "Bulk search_batch() in batches of 256 at B=4: per-call overhead is amortised 256x and "
        "estimation runs as grouped GEMM; a kernel gain shows here, a per-call-overhead gain should not."
    )
    bits = 4
    n_queries = 1024
    batch = 256
    recall_floor = 0.99

    def warm_up(self) -> None:
        self.searcher.search_batch(self.queries[: self.batch], K, nprobe=NPROBE)

    def query_latencies(self, segment: Segment):
        """A query waits for the call that carries it: with 256 queries a call,
        the 99th percentile of a pass's 1,024 waits is its slowest call."""
        return np.repeat(segment.latencies[SEARCH], self.batch)

    def run_queries(self, traced: bool):
        search_batch = self.searcher.search_batch
        latencies, results = [], []
        for lo in range(0, self.n_queries, self.batch):
            batch, seconds = self.call(
                traced, SEARCH, lo, search_batch,
                self.queries[lo : lo + self.batch], K, nprobe=NPROBE,
            )
            latencies.append(seconds)
            results.extend(batch)
        return latencies, results


def single_call_seconds(phases: list[perfload.Phase]) -> float:
    """Lower quartile of the ``search_batch`` calls that carried one request."""
    return quartiles(
        [end - start for phase in phases for start, end, rows in phase.calls if rows == 1]
    )[0]


def rate_layers(tag: str, phases: list[perfload.Phase]) -> dict[str, float]:
    """What the engine did at one rate, over every phase run at that rate."""
    waits = np.concatenate([
        (phase.started - phase.due)[~np.isnan(phase.done)] for phase in phases
    ])
    latencies = np.concatenate([phase.account["latencies_ms"] for phase in phases])
    return {
        # Due -> start of the search_batch call that carried the request.
        f"serving.engine.queue_wait_p50_ms_{tag}": percentile(waits * 1e3, 50.0),
        f"serving.engine.batch_fill_mean_{tag}": sum(
            phase.engine_stats["batched_requests"] for phase in phases
        ) / sum(phase.engine_stats["batches"] for phase in phases),
        f"serving.engine.busy_frac_{tag}": sum(phase.busy_s for phase in phases)
        / sum(phase.wall_s for phase in phases),
        f"serving.engine.good_frac_{tag}": sum(phase.account["good"] for phase in phases)
        / sum(phase.n for phase in phases),
        f"serving.engine.p50_ms_{tag}": percentile(latencies, 50.0),
    }


class ServeOpen(Workload):
    name = "serve_open"
    why = (
        "Open-loop Poisson arrivals at fixed 100/200/1200 req/s through ServingEngine (B=1): "
        "micro-batches of 1-16, queue wait and, at 1.4-2x capacity, the nprobe budget policy only exist here."
    )
    bits = 1
    # Full micro-batches at the requested nprobe sustain 600-880 req/s as the
    # host's pace goes (index.searcher.batch_ms_per_query_b16 of 1.1-1.7 ms),
    # batches of one or two ~400: 100 req/s is light (~25 % busy), 200
    # moderate (~45 %), and 1200 is 1.4-2x capacity, where the engine keeps up
    # only by degrading nprobe to 4-6.  1000 was not enough: with the host at
    # its faster pace only 40 % of the requests were degraded.  The rates are
    # fixed: a slower build is offered the same load.
    rates = (100, 200, 1200)
    # Of the run.  The light rate carries the latency metrics and gets the
    # time; 1200 req/s reaches its steady state within 0.2 s.
    shares = (0.65, 0.15, 0.2)
    # The light rate runs as segments of this many requests (one second each),
    # each with the host pace measured around it like any other segment.
    segment_requests = 100
    recall_sample = 200  # requests per rate
    warm = 64

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        # The traced run uses half the time budget, like the other workloads.
        seconds = ctx.seconds / 2.0 if ctx.trace else ctx.seconds
        light = self.rates[0]
        n_light = max(
            2 if ctx.quick else MIN_SEGMENTS,
            round(light * self.shares[0] * seconds / self.segment_requests),
        )
        self.plan = [(light, self.segment_requests)] * n_light + [
            (rate, max(16, int(rate * share * seconds)))
            for rate, share in zip(self.rates[1:], self.shares[1:])
        ]
        self.n_queries = self.warm + sum(count for _, count in self.plan)

    def warm_up(self) -> None:
        for size in (1, 2, 4, 8, 16):
            self.searcher.search_batch(self.queries[:size], K, nprobe=NPROBE)
        self.searcher.search_batch(self.queries[: self.warm], K, nprobe=4)

    def phase_queries(self, position: int) -> np.ndarray:
        """Every request of every phase is a distinct query vector."""
        offset = self.warm + sum(count for _, count in self.plan[:position])
        return self.queries[offset : offset + self.plan[position][1]]

    def run_phases(self) -> dict[int, list[perfload.Phase]]:
        """Every phase of the plan on a fresh engine; returns them by rate.

        In the traced run every other light segment runs without the probe
        and rerank proxies, for the overhead.
        """
        by_rate: dict[int, list[perfload.Phase]] = {rate: [] for rate in self.rates}
        cpu = time.process_time()
        for position, (rate, _) in enumerate(self.plan):
            traced = self.ctx.trace and (rate != self.rates[0] or position % 2 == 0)
            with ExitStack() as stack:
                if traced:
                    stack.enter_context(
                        traced_search_path(self.searcher, self.ctx.tracer, self.probe_stats)
                    )
                phase, phase.speed = self.host.around(
                    perfload.run_phase,
                    self.searcher, self.phase_queries(position), rate,
                    [self.ctx.seed, position], k=K, nprobe=NPROBE,
                    tracer=self.ctx.tracer if traced else None,
                )
            self.check_phase(phase)
            by_rate[rate].append(phase)
        self.cpu_s = time.process_time() - cpu
        self.check_overload(by_rate[self.rates[-1]][0])
        return by_rate

    def check_phase(self, phase: perfload.Phase) -> None:
        """A refusal under overload is the admission policy at work: it misses
        the latency limit but is not a wrong output.  Errors and malformed
        answers are failures."""
        self.attempted += phase.n
        self.failed += phase.errored
        for result in phase.results:
            if result is not None and not result_ok(result.ids, result.distances):
                self.failed += 1
        self.require(
            phase.accounting_closes(),
            f"accounting at {phase.rate} req/s does not close: sent {phase.n}, "
            f"completed {phase.account['completed']}, rejected {phase.rejected}, "
            f"failed {phase.errored}, rows served {phase.proxy_rows}",
        )

    def check_overload(self, over: perfload.Phase) -> None:
        """The last rate has to be one the engine cannot serve as asked: a
        quarter of its requests at least degraded by the budget policy or
        refused at the door (sizing: 70-95 %)."""
        served = ~np.isnan(over.done)
        pressed = over.rejected + int(np.count_nonzero(over.nprobe[served] < NPROBE))
        self.require(
            4 * pressed >= over.n,
            f"{over.rate} req/s is no overload: only {pressed} of {over.n} requests "
            "were degraded or refused",
        )

    def sample_recall(self, phases: list[perfload.Phase], tag) -> float:
        """Recall over a seeded sample of the requests *sent* at one rate; a
        request that got no answer found none of its neighbours."""
        answers = [
            np.empty(0, dtype=np.int64) if result is None else result.ids
            for phase in phases
            for result in phase.results
        ]
        queries = np.concatenate([phase.queries for phase in phases])
        rng = np.random.default_rng([self.ctx.seed, tag])
        size = min(self.recall_sample, len(answers))
        sample = rng.choice(len(answers), size=size, replace=False)
        truth = self.ground_truth(self.data, queries[sample])
        return recall_at_k([answers[i] for i in sample], truth, K)

    def recalls(self, by_rate) -> list[float]:
        """Recall at each rate; the first two are served as asked."""
        recalls = [self.sample_recall(by_rate[rate], rate) for rate in self.rates]
        for rate, recall in zip(self.rates[:2], recalls):
            self.require(
                recall >= 0.97, f"recall@{K} {recall:.4f} at {rate} req/s below the floor 0.97"
            )
        return recalls

    def measure(self) -> dict[str, list[float]]:
        by_rate = self.run_phases()
        phases = [phase for rate in self.rates for phase in by_rate[rate]]
        light = by_rate[self.rates[0]]
        return {
            # Answers given within 50 ms of due, per second of the whole
            # schedule.  Not scaled to the reference pace: the schedule sets
            # the wall time, not the host.
            "qps": [
                sum(phase.account["good"] for phase in phases)
                / sum(phase.wall_s for phase in phases)
            ],
            "p50_ms": [
                statistics.median(phase.account["latencies_ms"]) * phase.speed for phase in light
            ],
            "p99_ms": [
                percentile(phase.account["latencies_ms"], 99.0) * phase.speed for phase in light
            ],
            # All three rates weigh the same: recall given away under
            # overload shows here, a refusal as an answer with no neighbours.
            "recall_at_10": [statistics.fmean(self.recalls(by_rate))],
            **self.stored_metrics(),
            **self.common_metrics(),
        }

    def measure_layers(self) -> dict[str, float]:
        self.setup_layers()
        by_rate = self.run_phases()
        phases = [phase for rate in self.rates for phase in by_rate[rate]]
        traced = [phase for phase in phases if phase.traced]
        light = by_rate[self.rates[0]]
        (over,) = by_rate[self.rates[-1]]
        over_recall = self.recalls(by_rate)[-1]  # before the set-up layers are read
        answered = [
            result for phase in light if phase.traced
            for result in phase.results if result is not None
        ]
        closure = closure_error(self.ctx.tracer.spans, perfload.REQUEST)
        self.require(
            closure <= CLOSURE_LIMIT,
            f"trace does not close: {closure:.3f} of the request spans unexplained",
        )
        layers = {
            **self.layers,
            **self.search_path_layers(
                sum(phase.proxy_rows for phase in traced),
                [int(result.n_exact) for result in answered],
                [int(result.n_candidates) for result in answered],
            ),
            **kernel_layers(self.searcher, self.queries[0]),
            **batch_sweep_layers(self.searcher, self.queries),
            "bench.closure_error_frac": closure,
            "bench.host_speed": statistics.median(self.host.samples),
            "bench.segments": float(len(light)),
            # A batch of one with the probe and rerank proxies on, against
            # the same rate without them (quiet quartile of each).
            "bench.trace_overhead_frac": single_call_seconds(
                [phase for phase in light if phase.traced]
            ) / single_call_seconds([phase for phase in light if not phase.traced]) - 1.0,
            "bench.gen_late_p99_ms": percentile(
                np.concatenate([phase.sent - phase.due for phase in phases]), 99.0
            ) * 1e3,
            # Generator included: one process serves and offers the load.
            "index.searcher.cpu_ms_per_query": 1e3 * self.cpu_s
            / sum(phase.proxy_rows for phase in phases),
        }
        ok_rates = [0.0]
        for rate in self.rates:
            at_rate = rate_layers(f"r{rate}", by_rate[rate])
            layers.update(at_rate)
            if at_rate[f"serving.engine.good_frac_r{rate}"] >= 0.9:
                ok_rates.append(float(rate))
        completed = ~np.isnan(over.done)
        tag = f"r{self.rates[-1]}"
        layers.update({
            "serving.engine.p99_ms_r100": percentile(
                np.concatenate([phase.account["latencies_ms"] for phase in light]), 99.0
            ),
            "serving.engine.latency_p50_ms_r100": statistics.median(
                phase.engine_p50_ms for phase in light
            ),
            f"serving.engine.rejected_{tag}": float(over.rejected),
            f"serving.engine.deadline_miss_rate_{tag}": over.engine_stats["deadline_miss_rate"],
            f"serving.engine.done_rps_{tag}": over.account["completed"] / over.wall_s,
            # Requests served per second spent inside search_batch: what the
            # degraded budget buys.
            f"serving.engine.service_rps_{tag}": over.proxy_rows / over.busy_s,
            "serving.engine.max_ok_rps": max(ok_rates),
            f"serving.engine.recall_at_10_{tag}": over_recall,
            f"serving.budget.degraded_frac_{tag}": float(
                np.mean(over.nprobe[completed] < NPROBE)
            ),
            f"serving.budget.mean_nprobe_{tag}": float(np.mean(over.nprobe[completed])),
        })
        return layers


class MutateMixed(Workload):
    name = "mutate_mixed"
    why = (
        "Journaled insert/delete cycles beside search() reads, then compact, crash-recover "
        "(load + replay) and checkpoint: write-path, arena-layout and journal changes show here only."
    )
    bits = 1
    journaled = True
    n_queries = 200
    cycles = 20  # per segment, then compact, recover and checkpoint
    rows = 100  # inserted, and as many live ids deleted, per cycle
    reads = 20  # sequential search() calls per cycle
    n_extra = 60_000  # the insert supply: 30 segments of fresh rows
    recall_floor = 0.95

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.rng = np.random.default_rng([ctx.seed, 7])
        self.deleted = np.zeros(N_DATA + self.n_extra, dtype=bool)
        self.cursor = 0  # next unused row of the insert supply
        self.read_cursor = 0

    @property
    def segment_limit(self) -> int:
        # Two segments' worth of rows stay in reserve for the twin and the final check.
        return self.n_extra // (self.cycles * self.rows) - 2

    def warm_up(self) -> None:
        for query in self.queries[:32]:
            self.searcher.search(query, K, nprobe=NPROBE)

    def cycle_script(self, live, traced: bool, cycles: int) -> tuple[dict, dict]:
        """``cycles`` x {insert rows, delete as many live ids, a few reads}, then compact.

        Inserts equal deletes, so the live set keeps its size and every
        segment does the same work on an index of the same shape.  Returns
        the per-call latencies and the state just before the compaction.
        """
        latencies = {name: [] for name in (INSERT, DELETE, SEARCH, COMPACT)}
        reads = []  # (n_exact, n_candidates) of each search
        for _ in range(cycles):
            rows = self.extra[self.cursor : self.cursor + self.rows]
            expected_ids = N_DATA + self.cursor + np.arange(self.rows)
            self.cursor += self.rows
            new_ids, seconds = self.call(traced, INSERT, None, live.insert, rows)
            latencies[INSERT].append(seconds)
            # Row i of the supply must carry id N_DATA + i: the final brute
            # force looks vectors up by id.
            self.failed += 0 if np.array_equal(new_ids, expected_ids) else self.rows
            victims = self.rng.choice(np.sort(live.live_ids), self.rows, replace=False)
            removed, seconds = self.call(traced, DELETE, None, live.delete, victims)
            latencies[DELETE].append(seconds)
            self.failed += self.rows - removed
            self.deleted[victims] = True
            for _ in range(self.reads):
                query = self.queries[self.read_cursor % self.n_queries]
                self.read_cursor += 1
                result, seconds = self.call(
                    traced, SEARCH, None, live.search, query, K, nprobe=NPROBE
                )
                latencies[SEARCH].append(seconds)
                reads.append((int(result.n_exact), int(result.n_candidates)))
                if not result_ok(result.ids, result.distances) or self.deleted[result.ids].any():
                    self.failed += 1
        self.attempted += cycles * (2 * self.rows + self.reads)
        before = {
            "reads": reads,
            "mem": live.arena.memory_bytes() / live.n_live,
            "journal_bytes": os.path.getsize(default_journal_path(self.archive)),
        }
        _, seconds = self.call(traced, COMPACT, None, live.compact)
        latencies[COMPACT].append(seconds)
        return latencies, before

    def segment(self, traced: bool) -> Segment:
        """Cycles on the live index, then the crash: recover from archive + journal,
        compare with what was acknowledged, checkpoint, and carry on from there."""
        tracer = self.ctx.tracer
        live = self.searcher
        with ExitStack() as root:
            if traced:
                root.enter_context(tracer.span(SEGMENT))
            with ExitStack() as proxies:
                if traced:
                    proxies.enter_context(
                        traced_search_path(live, tracer, self.probe_stats)
                    )
                cpu = time.process_time()
                start = time.perf_counter()
                latencies, before = self.cycle_script(live, traced, self.cycles)
                wall = time.perf_counter() - start
                cpu = time.process_time() - cpu
            acknowledged = np.sort(live.live_ids)
            self.searcher = live = None  # only the archive and its journal survive
            _, recover_s = self.call(traced, LOAD, None, self.restart)
            recovered = self.searcher
            self.attempted += 1
            self.failed += int(
                np.setxor1d(acknowledged, recovered.live_ids).size
            )
            _, save_s = self.call(traced, SAVE, None, save_searcher, recovered, self.archive)
            self.searcher = recovered
        segment = Segment(
            traced, wall, cpu, self.cycles * (2 * self.rows + self.reads), latencies
        )
        segment.n_exact, segment.n_candidates = map(list, zip(*before.pop("reads")))
        segment.extra = {
            **before,
            "recover_s": recover_s,
            "save_s": save_s,
            "archive_bytes": os.path.getsize(self.archive),
            "n_total": recovered.n_total,
        }
        return segment

    def final_check(self) -> float:
        """Recall on the recovered index against brute force over the final live set."""
        live = self.searcher
        self.cycle_script(live, False, 3)
        ids = np.sort(live.live_ids)
        truth = ids[self.ground_truth(self.all_rows[ids], self.queries)]

        def recall_of(searcher) -> float:
            found = [searcher.search(q, K, nprobe=NPROBE).ids for q in self.queries]
            self.require(
                not any(self.deleted[row].any() for row in found),
                "a deleted id was returned",
            )
            return recall_at_k(found, truth, K)

        live_recall = recall_of(live)
        self.searcher = live = None
        recovered = load_searcher(self.archive, journal=True)
        self.searcher = recovered
        self.require(
            np.array_equal(np.sort(recovered.live_ids), ids),
            "recovered live ids differ from the live searcher's",
        )
        recall = recall_of(recovered)
        # Within 0.01: 20 of the 2,000 neighbours asked for.
        self.require(
            abs(recall - live_recall) <= 20 / (self.n_queries * K),
            f"recovered recall {recall:.4f} vs live {live_recall:.4f}",
        )
        self.require(
            recall >= self.recall_floor,
            f"recall@{K} {recall:.4f} below the floor {self.recall_floor}",
        )
        return recall

    def load(self) -> None:
        super().load()
        self.all_rows = np.concatenate([self.data, self.extra])

    def measure(self) -> dict[str, list[float]]:
        segments = self.run_segments(self.ctx.seconds, self.segment_limit)
        return {
            # Queries answered per second of the cycles and their compaction,
            # writes included: a slower write path lowers it as a slower read does.
            "qps": [s.per_s(len(s.latencies[SEARCH])) for s in segments],
            "p50_ms": [s.ms(statistics.median(s.latencies[SEARCH])) for s in segments],
            "p99_ms": [s.ms(percentile(s.latencies[SEARCH], 99.0)) for s in segments],
            "recall_at_10": [self.final_check()],
            # Byte counts of the first segment, whose script a seed fixes, so
            # that they repeat exactly however many segments the run fits in.
            "mem_bytes_per_vector": [segments[0].extra["mem"]],
            "archive_bytes_per_vector": [
                segments[0].extra["archive_bytes"] / segments[0].extra["n_total"]
            ],
            "recover_s": [s.extra["recover_s"] * s.speed for s in segments],
            **self.common_metrics(),
        }

    def twin_insert_seconds(self) -> list[float]:
        """Insert times of the first segment's script on a twin loaded *without*
        a journal; the script's inputs are rewound afterwards so the journaled
        index then replays exactly the same calls."""
        state = (self.cursor, self.read_cursor, self.rng.bit_generator.state,
                 self.deleted.copy(), self.attempted, self.failed)
        twin = load_searcher(self.archive)
        latencies, _ = self.cycle_script(twin, False, self.cycles)
        (self.cursor, self.read_cursor, self.rng.bit_generator.state,
         self.deleted, self.attempted, self.failed) = state
        return latencies[INSERT]

    def measure_layers(self) -> dict[str, float]:
        self.setup_layers()
        twin_insert = self.twin_insert_seconds()
        segments = self.run_segments(self.ctx.seconds / 2.0, self.segment_limit)
        traced = [s for s in segments if s.traced]
        self.final_check()
        inserts = [x for s in segments for x in s.latencies[INSERT]]
        deletes = [x for s in segments for x in s.latencies[DELETE]]
        written = self.cycles * self.rows
        recover = statistics.median(s.extra["recover_s"] for s in segments)
        return {
            **self.layers,
            **self.search_path_layers(
                sum(len(s.latencies[SEARCH]) for s in traced),
                traced[0].n_exact,
                traced[0].n_candidates,
            ),
            **self.segment_layers(segments),
            **kernel_layers(self.searcher, self.queries[0]),
            **batch_sweep_layers(self.searcher, self.queries),
            "index.searcher.insert_ms_p50": statistics.median(inserts) * 1e3,
            "index.searcher.insert_ms_max": max(inserts) * 1e3,
            "index.searcher.insert_rows_per_s": self.rows * len(inserts) / sum(inserts),
            "index.searcher.delete_ms_p50": statistics.median(deletes) * 1e3,
            "index.searcher.compact_s": statistics.median(
                s.latencies[COMPACT][0] for s in segments
            ),
            "io.journal.bytes_per_row": statistics.median(
                s.extra["journal_bytes"] for s in segments
            ) / written,
            "io.journal.replay_rows_per_s": 2 * written / recover,
            # Call by call: both ran the same inserts on the same index.
            "io.journal.insert_overhead_frac": statistics.median(
                journaled / plain
                for journaled, plain in zip(segments[0].latencies[INSERT], twin_insert)
            ) - 1.0,
            "io.persistence.archive_bytes": float(segments[-1].extra["archive_bytes"]),
        }


WORKLOADS = {cls.name: cls for cls in (QuerySingle, QueryBatch, ServeOpen, MutateMixed)}
