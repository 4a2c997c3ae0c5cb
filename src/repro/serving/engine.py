"""Request coalescing engine: concurrent ``submit`` calls → micro-batches.

Production ANN traffic arrives as concurrent *single* queries, while
``search_batch`` does less work per query than ``search`` only in large
calls.  A call of one row *is* ``search``; a call of several rows makes one
kernel call per probed cluster group, which at B=1 pays off from about 64
rows per call (``perf/``'s ``index.searcher.batch_ms_per_query_b*``).
:class:`ServingEngine` converts one into the other: callers submit single
queries from any thread, a dedicated worker thread groups compatible
requests (same ``k`` and requested ``nprobe`` against the same searcher)
into micro-batches bounded by ``max_batch`` and a ``max_delay_us``
collection window, executes each micro-batch with one ``search_batch``
call, and scatters the per-request :class:`SearchResult`s back to the
waiting callers.

Correctness story
-----------------
Search is a pure function of (index, query) in this repo: a query's
answer does not depend on what was asked before it, what it is batched
with, or its row in the batch.  Every response therefore equals, bit for
bit, ``searcher.search(handle.query, handle.k,
nprobe=handle.nprobe_effective)`` on the *same* searcher — the handle
carries everything needed to check it, so the engine keeps no log.

Admission control and deadlines
-------------------------------
The request queue is bounded (``max_queue_depth``); a submit against a
full queue fast-fails with :class:`AdmissionRejectedError` *before* the
request consumes any search work, as does a request whose relative
``deadline`` is already non-positive.  Admitted requests may still be
*degraded*: when a :class:`~repro.serving.budget.BudgetController` is
attached, the worker computes each request's remaining time at dispatch
and lowers its effective ``nprobe`` so the forecast service cost fits the
deadline (the per-call ``nprobe=`` override of ``search``/``search_batch``
makes this possible without touching the searcher).  Requests whose
effective budgets diverge are split into per-budget sub-batches, executed
in first-arrival order.

Clocking
--------
All timestamps come from the injectable ``clock`` callable (default
:func:`time.monotonic`): enqueue times, deadline conversion, service
timing and latency samples.  Tests freeze the clock to pin deadline
degradation decisions exactly; a frozen clock requires ``max_delay_us=0``
(the collection window can only expire by the clock advancing).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

import numpy as np

from repro.exceptions import (
    AdmissionRejectedError,
    InvalidParameterError,
    ServingError,
)
from repro.metrics.timing import LatencyRecorder
from repro.serving.budget import BudgetController
from repro.substrates.linalg import require_finite, require_positive_int

__all__ = ["ServingEngine", "PendingRequest"]


class PendingRequest:
    """Handle returned by :meth:`ServingEngine.submit_async`.

    ``result()`` blocks until the worker answers (or fails) the request.
    Instances are created by the engine only.
    """

    __slots__ = (
        "query",
        "k",
        "nprobe",
        "nprobe_effective",
        "deadline_abs",
        "enqueue_t",
        "_event",
        "_result",
        "_error",
    )

    def __init__(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        deadline_abs: float | None,
        enqueue_t: float,
    ) -> None:
        self.query = query
        self.k = k
        self.nprobe = nprobe
        #: Probe budget actually spent; set by the worker at dispatch.
        self.nprobe_effective: int | None = None
        self.deadline_abs = deadline_abs
        self.enqueue_t = enqueue_t
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the request has been answered (or failed)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until answered; return the :class:`SearchResult`.

        Raises the worker-side error if execution failed, or
        :class:`ServingError` if ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise ServingError(
                f"request not answered within {timeout!r} seconds"
            )
        if self._error is not None:
            raise self._error
        return self._result


class ServingEngine:
    """Thread-safe coalescing front end over one searcher.

    Parameters
    ----------
    searcher:
        A fitted :class:`~repro.index.searcher.IVFQuantizedSearcher`.
        The engine owns a reference, not the lifecycle — closing the
        engine does not close the searcher.
    max_batch:
        Largest micro-batch dispatched in one ``search_batch`` call.
    max_delay_us:
        Collection window in microseconds: once a request heads the queue,
        the worker waits at most this long for compatible requests to
        coalesce before dispatching a partial batch.  ``0`` dispatches
        whatever is queued immediately (required under a frozen clock).
        Must be finite and at most ``threading.TIMEOUT_MAX`` seconds.
    max_queue_depth:
        Admission bound on *queued* (not yet dispatched) requests; submits
        beyond it raise :class:`AdmissionRejectedError`.
    budget:
        Optional :class:`~repro.serving.budget.BudgetController` enabling
        deadline-aware ``nprobe`` degradation.  The engine feeds it
        service-time observations from every executed micro-batch.
    clock:
        Monotonic time source (seconds).  Injectable for deterministic
        tests; defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        searcher,
        *,
        max_batch: int = 32,
        max_delay_us: int = 2000,
        max_queue_depth: int = 1024,
        budget: BudgetController | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        require_positive_int(max_batch, "max_batch")
        require_positive_int(max_queue_depth, "max_queue_depth")
        try:
            max_delay_s = float(max_delay_us) * 1e-6
        except (TypeError, ValueError):
            max_delay_s = float("nan")
        # The window becomes a Condition.wait timeout, which must be finite
        # and at most TIMEOUT_MAX (NaN fails both comparisons).
        if not 0.0 <= max_delay_s <= threading.TIMEOUT_MAX:
            raise InvalidParameterError(
                f"max_delay_us must be a finite number of microseconds in "
                f"[0, {threading.TIMEOUT_MAX * 1e6:.0f}], got {max_delay_us!r}"
            )
        dim = getattr(searcher, "dim", None)
        if dim is None:
            raise InvalidParameterError(
                "searcher must expose a `dim` property"
            )
        self._searcher = searcher
        self._dim = int(dim)
        self.max_batch = int(max_batch)
        self.max_delay_s = max_delay_s
        self.max_queue_depth = int(max_queue_depth)
        self._budget = budget
        self._clock = clock if clock is not None else time.monotonic

        self._cv = threading.Condition()
        self._queue: list[PendingRequest] = []
        self._executing = 0
        self._closed = False

        self._latency = LatencyRecorder()
        self._n_submitted = 0
        self._n_completed = 0
        self._n_failed = 0
        self._n_rejected_queue = 0
        self._n_rejected_deadline = 0
        self._n_batches = 0
        self._n_batched = 0
        self._max_fill = 0
        self._n_degraded = 0
        self._n_deadline_miss = 0

        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serving-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # submission side (any thread)
    # ------------------------------------------------------------------

    @property
    def searcher(self):
        """The searcher this engine dispatches to."""
        return self._searcher

    @property
    def latency(self) -> LatencyRecorder:
        """Enqueue-to-answer latency samples of completed requests."""
        return self._latency

    @property
    def budget(self) -> BudgetController | None:
        """The attached budget controller, if any."""
        return self._budget

    def submit_async(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int = 8,
        deadline: float | None = None,
    ) -> PendingRequest:
        """Enqueue one query; return immediately with a handle.

        ``deadline`` is *relative*: seconds from now within which the
        caller wants the answer.  It is advisory for batching (the budget
        controller degrades ``nprobe`` to chase it) except at admission,
        where a non-positive deadline fast-fails.
        """
        # The searcher's rule, so a request it would refuse is never served.
        require_positive_int(k, "k")
        require_positive_int(nprobe, "nprobe")
        vec = np.asarray(query, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self._dim:
            raise InvalidParameterError(
                f"query has {vec.shape[0]} dimensions, searcher expects "
                f"{self._dim}"
            )
        require_finite(vec, "query")
        if deadline is not None:
            deadline = float(deadline)
            if not np.isfinite(deadline):
                raise InvalidParameterError("deadline must be finite")
        with self._cv:
            if self._closed:
                raise ServingError("submit on a closed ServingEngine")
            if deadline is not None and deadline <= 0.0:
                self._n_rejected_deadline += 1
                raise AdmissionRejectedError(
                    f"deadline of {deadline!r}s is already expired at submit"
                )
            if len(self._queue) >= self.max_queue_depth:
                self._n_rejected_queue += 1
                raise AdmissionRejectedError(
                    f"request queue is full ({self.max_queue_depth} pending)"
                )
            now = self._clock()
            request = PendingRequest(
                query=vec,
                k=int(k),
                nprobe=int(nprobe),
                deadline_abs=None if deadline is None else now + deadline,
                enqueue_t=now,
            )
            self._queue.append(request)
            self._n_submitted += 1
            self._cv.notify_all()
        return request

    def submit(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int = 8,
        deadline: float | None = None,
        timeout: float | None = None,
    ):
        """Blocking submit: enqueue, wait, return the :class:`SearchResult`."""
        pending = self.submit_async(query, k, nprobe=nprobe, deadline=deadline)
        return pending.result(timeout=timeout)

    def drain(self, timeout: float | None = None) -> None:
        """Block until every admitted request has been answered."""
        deadline_t = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._queue or self._executing:
                remaining = None
                if deadline_t is not None:
                    remaining = deadline_t - time.monotonic()
                    if remaining <= 0.0:
                        raise ServingError(
                            f"drain did not complete within {timeout!r} seconds"
                        )
                self._cv.wait(timeout=remaining)

    def close(self) -> None:
        """Stop accepting requests, answer everything queued, join the worker.

        Idempotent.  Queued requests are *completed*, not cancelled; only
        new submits fail (with :class:`ServingError`) after close.
        """
        with self._cv:
            if self._closed:
                self._cv.notify_all()
            self._closed = True
            self._cv.notify_all()
        if self._worker.is_alive():
            self._worker.join()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

    def stats(self) -> dict:
        """Counters snapshot: admission, batching and deadline behaviour."""
        with self._cv:
            completed = self._n_completed
            rejected = self._n_rejected_queue + self._n_rejected_deadline
            return {
                "submitted": self._n_submitted,
                "completed": completed,
                "failed": self._n_failed,
                "rejected": rejected,
                "rejected_queue_full": self._n_rejected_queue,
                "rejected_deadline": self._n_rejected_deadline,
                "batches": self._n_batches,
                "batched_requests": self._n_batched,
                "mean_batch_fill": (
                    self._n_batched / self._n_batches if self._n_batches else 0.0
                ),
                "max_batch_fill": self._max_fill,
                "degraded_requests": self._n_degraded,
                "deadline_misses": self._n_deadline_miss,
                "deadline_miss_rate": (
                    self._n_deadline_miss / completed if completed else 0.0
                ),
            }

    # ------------------------------------------------------------------
    # worker side (single thread)
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._execute(batch)

    def _collect_batch(self) -> list[PendingRequest] | None:
        """Pull the next micro-batch off the queue (or ``None`` to exit).

        The head request anchors the batch: the worker holds the
        collection window open (``max_delay_s`` past the head's enqueue
        time) while fewer than ``max_batch`` requests are queued, then
        extracts up to ``max_batch`` requests sharing the head's
        ``(k, nprobe)`` compatibility key, in FIFO order.  Incompatible
        requests keep their queue positions for a later batch.
        """
        with self._cv:
            while not self._queue and not self._closed:
                self._cv.wait()
            if not self._queue:
                return None  # closed and fully drained
            head = self._queue[0]
            if self.max_delay_s > 0.0:
                window_end = head.enqueue_t + self.max_delay_s
                while (
                    len(self._queue) < self.max_batch
                    and not self._closed
                    and self._clock() < window_end
                ):
                    # The wait timeout is real time; the loop condition is
                    # engine-clock time.  They agree for the default clock,
                    # and a frozen test clock must set max_delay_us=0 (the
                    # window would otherwise never expire).
                    self._cv.wait(timeout=max(window_end - self._clock(), 1e-4))
            key = (head.k, head.nprobe)
            batch: list[PendingRequest] = []
            rest: list[PendingRequest] = []
            for request in self._queue:
                if len(batch) < self.max_batch and (request.k, request.nprobe) == key:
                    batch.append(request)
                else:
                    rest.append(request)
            self._queue = rest
            self._executing += len(batch)
            self._cv.notify_all()  # queue space freed; drain() re-checks
            return batch

    def _execute(self, batch: list[PendingRequest]) -> None:
        """Dispatch one micro-batch, scattering results to the callers."""
        now = self._clock()
        # Per-request effective nprobe, then order-preserving partition
        # into sub-batches (one search_batch call per distinct budget).
        groups: dict[int, list[PendingRequest]] = {}
        order: list[int] = []
        for request in batch:
            if self._budget is None:
                effective = request.nprobe
            else:
                remaining = (
                    None
                    if request.deadline_abs is None
                    else request.deadline_abs - now
                )
                effective = self._budget.effective_nprobe(
                    request.nprobe, remaining
                )
            request.nprobe_effective = effective
            if effective not in groups:
                groups[effective] = []
                order.append(effective)
            groups[effective].append(request)

        with self._cv:
            self._n_batches += 1
            self._n_batched += len(batch)
            self._max_fill = max(self._max_fill, len(batch))
            self._n_degraded += sum(
                1 for r in batch if r.nprobe_effective != r.nprobe
            )

        for effective in order:
            requests = groups[effective]
            queries = np.stack([r.query for r in requests])
            t0 = self._clock()
            try:
                results = self._searcher.search_batch(
                    queries, requests[0].k, nprobe=effective
                )
            except BaseException as exc:  # surfaced to the waiting callers
                error = ServingError(
                    f"search_batch failed inside the serving worker: {exc!r}"
                )
                error.__cause__ = exc
                for request in requests:
                    self._finish(request, error=error)
                continue
            t1 = self._clock()
            if self._budget is not None:
                self._budget.observe(effective, len(requests), t1 - t0)
            for request, result in zip(requests, results):
                self._finish(request, result=result, finished_at=t1)

    def _finish(
        self,
        request: PendingRequest,
        *,
        result=None,
        error: BaseException | None = None,
        finished_at: float | None = None,
    ) -> None:
        done_t = finished_at if finished_at is not None else self._clock()
        with self._cv:
            self._executing -= 1
            if error is not None:
                self._n_failed += 1
            else:
                self._n_completed += 1
                self._latency.record(max(done_t - request.enqueue_t, 0.0))
                if (
                    request.deadline_abs is not None
                    and done_t > request.deadline_abs
                ):
                    self._n_deadline_miss += 1
            self._cv.notify_all()
        request._result = result
        request._error = error
        request._event.set()
