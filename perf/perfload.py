"""Open-loop load generation against ``ServingEngine``.

Open loop = independent users: requests are sent on a seeded Poisson
schedule whether or not earlier ones have been answered, so a stall in the
engine lengthens the latency of every request that falls due behind it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import AdmissionRejectedError, ReproError
from repro.serving import BudgetController, ServingEngine

from perfstats import account_latencies, poisson_schedule
from perftrace import StampingSearcher, Tracer

#: A request answered later than this after it was due has missed.
LATENCY_LIMIT_S = 0.050

REQUEST = "bench.request"
GEN_LATE = "bench.gen_late"
QUEUE_WAIT = "serving.engine.queue_wait"
SERVICE = "serving.engine.service"


def drive_open_loop(submit, due: np.ndarray, clock=time.perf_counter, sleep=time.sleep):
    """Call ``submit(i)`` when ``due[i]`` seconds have passed; never wait for a reply.

    Returns the start instant and each request's actual send time.  A late
    generator sends immediately and the lateness shows in ``sent - due``.
    """
    sent = np.empty(len(due), dtype=np.float64)
    start = clock()
    for i, offset in enumerate(due):
        wait = start + offset - clock()
        if wait > 0.0:
            sleep(wait)
        sent[i] = clock()
        submit(i)
    return start, sent


@dataclass
class Phase:
    """What one fixed-rate phase offered and what came back."""

    rate: float
    queries: np.ndarray  # one distinct vector per request
    due: np.ndarray  # absolute due instants
    sent: np.ndarray
    started: np.ndarray  # start of the search_batch call that carried the row
    done: np.ndarray  # its return; NaN = rejected, failed or never completed
    nprobe: np.ndarray  # effective nprobe of that call (0 when not served)
    results: list  # SearchResult or None
    rejected: int
    errored: int
    calls: list  # (start, end, rows) of each search_batch call the proxy saw
    wall_s: float
    engine_stats: dict
    engine_p50_ms: float
    account: dict = field(default_factory=dict)
    traced: bool = False
    speed: float = 1.0  # host speed factor found around the phase (see perfhost)

    @property
    def n(self) -> int:
        return int(self.due.shape[0])

    @property
    def busy_s(self) -> float:
        return sum(end - start for start, end, _ in self.calls)

    @property
    def proxy_rows(self) -> int:
        return sum(rows for _, _, rows in self.calls)

    def accounting_closes(self) -> bool:
        """sent = completed + rejected + failed, and every served row is a request."""
        completed = self.account["completed"]
        return (
            self.n == completed + self.rejected + self.errored
            and self.proxy_rows == completed
            and self.engine_stats["completed"] == completed
        )


def run_phase(
    searcher,
    queries: np.ndarray,
    rate: float,
    seed,
    *,
    k: int,
    nprobe: int,
    tracer: Tracer | None = None,
) -> Phase:
    """Offer ``len(queries)`` distinct queries at ``rate`` req/s and account for each.

    ``searcher`` needs only ``dim`` and ``search_batch``; it is wrapped in
    the stamping proxy that serves as the completion clock.  Rows are
    matched to requests by query bytes, so every query must be distinct.
    """
    n = queries.shape[0]
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    proxy = StampingSearcher(searcher, tracer)
    engine = ServingEngine(
        proxy,
        max_batch=16,
        max_delay_us=2000,
        max_queue_depth=256,
        budget=BudgetController(min_nprobe=4),
        clock=time.perf_counter,
    )
    handles: list = [None] * n
    rejected = 0

    def submit(i: int) -> None:
        nonlocal rejected
        try:
            handles[i] = engine.submit_async(
                queries[i], k, nprobe=nprobe, deadline=LATENCY_LIMIT_S
            )
        except AdmissionRejectedError:
            rejected += 1

    offsets = poisson_schedule(rate, n, seed)
    try:
        start, sent = drive_open_loop(submit, offsets)
        engine.drain(timeout=120.0)
        wall = time.perf_counter() - start
        stats = engine.stats()
        recorder = engine.latency
        engine_p50 = recorder.p50 * 1e3 if recorder.count else 0.0
    finally:
        engine.close()

    row_of = {queries[i].tobytes(): i for i in range(n)}
    started = np.full(n, np.nan)
    done = np.full(n, np.nan)
    effective = np.zeros(n, dtype=np.int64)
    for call_start, call_end, call_nprobe, keys in proxy.calls:
        for key in keys:
            i = row_of[key]
            started[i], done[i], effective[i] = call_start, call_end, call_nprobe

    results: list = [None] * n
    errored = 0
    for i, handle in enumerate(handles):
        if handle is None:
            continue
        try:
            results[i] = handle.result(timeout=0.0)
        except ReproError:
            errored += 1
            done[i] = np.nan

    due = start + offsets
    phase = Phase(
        rate=rate, queries=queries, due=due, sent=sent, started=started, done=done,
        nprobe=effective, results=results, rejected=rejected, errored=errored,
        calls=[(a, b, len(keys)) for a, b, _, keys in proxy.calls],
        wall_s=wall, engine_stats=stats, engine_p50_ms=engine_p50,
        traced=tracer is not None,
    )
    phase.account = account_latencies(due, done, LATENCY_LIMIT_S)
    if tracer is not None:
        _record_request_spans(tracer, phase)
    return phase


def _record_request_spans(tracer: Tracer, phase: Phase) -> None:
    """Due→done of each served request, split into the three waits it is made of."""
    for i in np.flatnonzero(~np.isnan(phase.done)):
        i = int(i)
        due, sent = float(phase.due[i]), float(phase.sent[i])
        started, done = float(phase.started[i]), float(phase.done[i])
        request = f"r{int(phase.rate)}-{i}"
        root = tracer.add(REQUEST, due, done, request=request)
        tracer.add(GEN_LATE, due, sent, root, request)
        tracer.add(QUEUE_WAIT, sent, started, root, request)
        tracer.add(SERVICE, started, done, root, request)
