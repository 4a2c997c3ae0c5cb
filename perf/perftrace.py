"""Outside-in tracing: spans recorded from the benchmark's side of each call.

The program has no span support yet, so the layers are timed where the
benchmark can reach them without touching ``src/``: around its own calls
into public functions, and through proxies installed on public attributes
(``searcher.reranker``, ``searcher.ivf.probe``) or handed to public
constructors (``ServingEngine(searcher=...)``).  Spans live in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SEARCH = "index.searcher.search"
PROBE = "index.ivf.probe"
RERANK = "index.rerank"


class Tracer:
    """In-memory span log: ``[name, start, end, parent, request]`` rows.

    ``parent`` is the row index of the span that caused this one (``None``
    for a root); spans of one request share ``request``.  Each thread
    keeps its own stack of open spans, so the serving worker and the load
    generator can record concurrently.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def _append(self, row: list) -> int:
        with self._lock:
            self.spans.append(row)
            return len(self.spans) - 1

    def _stack(self) -> list[int]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        row = [name, 0.0, 0.0, stack[-1] if stack else None, request]
        index = self._append(row)
        stack.append(index)
        row[1] = time.perf_counter()
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, request=None) -> int:
        """Record a span after the fact (e.g. a queue wait, known only once
        the batch that ended it has been matched to its requests)."""
        return self._append([name, float(start), float(end), parent, request])

    def total(self, name: str) -> float:
        return sum(row[2] - row[1] for row in self.spans if row[0] == name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"columns": ["name", "start", "end", "parent", "request"],
                 "spans": self.spans},
                f,
            )


def span_self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    selfs = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        selfs.append((end - start) - covered)
    return selfs


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for row, own in zip(spans, span_self_times(spans)):
        totals[row[0]] += own
    return dict(totals)


def closure_error(spans: list[list], root: str) -> float:
    """Share of the enclosing ``root`` spans that their layers do not explain.

    Sums the self times of every span that descends from a ``root`` span
    and compares the sum with the roots' own duration; the difference is
    time spent in the benchmark's loop between the calls.  The traced run
    fails above 10 %.  A span's parent always has a lower index.
    """
    selfs = span_self_times(spans)
    enclosing = explained = 0.0
    inside = []
    for (name, start, end, parent, _), own in zip(spans, selfs):
        is_root = name == root
        inside.append(is_root or (parent is not None and inside[parent]))
        if is_root:
            enclosing += end - start
        elif inside[-1]:
            explained += own
    if enclosing <= 0.0:
        raise ValueError(f"no {root!r} span to close against")
    return abs(enclosing - explained) / enclosing


class TracedReranker:
    """Timing proxy for the public ``searcher.reranker`` attribute."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self._tracer = tracer

    def rerank(self, *args, **kwargs):
        with self._tracer.span(RERANK):
            return self.inner.rerank(*args, **kwargs)

    def rerank_batch(self, *args, **kwargs):
        with self._tracer.span(RERANK):
            return self.inner.rerank_batch(*args, **kwargs)


@contextmanager
def traced_search_path(searcher, tracer: Tracer, probe_stats: dict):
    """Install the probe and rerank proxies on ``searcher`` for the block.

    The probe proxy also passes the public ``stats=`` dict, so centroid-key
    evaluations are counted where they happen.
    """
    ivf = searcher.ivf
    probe, probe_batch = ivf.probe, ivf.probe_batch

    def traced_probe(*args, **kwargs):
        with tracer.span(PROBE):
            return probe(*args, stats=probe_stats, **kwargs)

    def traced_probe_batch(*args, **kwargs):
        with tracer.span(PROBE):
            return probe_batch(*args, stats=probe_stats, **kwargs)

    original = searcher.reranker
    ivf.probe, ivf.probe_batch = traced_probe, traced_probe_batch
    searcher.reranker = TracedReranker(original, tracer)
    try:
        yield
    finally:
        del ivf.probe, ivf.probe_batch
        searcher.reranker = original


class StampingSearcher:
    """The ``serve_open`` completion clock: a searcher proxy for the engine.

    ``PendingRequest`` carries no completion stamp, so the engine is handed
    this proxy (it needs only ``dim`` and ``search_batch``).  Each call's
    start, end, effective ``nprobe`` and row keys are kept; a request is
    done when the call that carried its row returns — the engine's own
    definition of ``finished_at``.
    """

    def __init__(self, inner, tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.calls: list[tuple[float, float, int, list[bytes]]] = []
        self._tracer = tracer

    @property
    def dim(self) -> int:
        return self.inner.dim

    def search_batch(self, queries, k, *, nprobe=8):
        keys = [row.tobytes() for row in queries]
        if self._tracer is None:
            start = time.perf_counter()
            result = self.inner.search_batch(queries, k, nprobe=nprobe)
            end = time.perf_counter()
        else:
            with self._tracer.span(SEARCH) as index:
                result = self.inner.search_batch(queries, k, nprobe=nprobe)
            _, start, end, _, _ = self._tracer.spans[index]
        self.calls.append((start, end, int(nprobe), keys))
        return result
