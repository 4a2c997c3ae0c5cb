"""Serving engine suite: coalescing, admission control, deadlines, lifecycle.

The engine's correctness contract is per response: search is a pure
function of (index, query), so whatever a request was batched with, its
answer equals ``searcher.search(handle.query, handle.k,
nprobe=handle.nprobe_effective)`` on the *same* searcher, bit for bit.
Every equivalence test here checks exactly that on the handles, after
``drain()`` — the engine is free to group requests however its knobs
dictate.

Deterministic scheduling tricks used below:

* ``_GateSearcher`` wraps a real searcher and blocks ``search_batch``
  until the test releases it — submitting one request and holding the
  gate parks the worker mid-batch, so follow-up submits queue up in a
  known state (exact coalescing groups, admission-control overflow).
* A ``_FrozenClock`` pins every engine timestamp; with ``max_delay_us=0``
  (the collection window can only expire by the clock advancing) the
  budget controller's degradation decisions become pure functions of the
  submitted deadlines, asserted exactly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.exceptions import (
    AdmissionRejectedError,
    InvalidParameterError,
    ServingError,
)
from repro.index.searcher import IVFQuantizedSearcher
from repro.serving import BudgetController, ServingEngine

DIM = 32


@pytest.fixture()
def searcher(small_data):
    return IVFQuantizedSearcher(
        "rabitq", n_clusters=8, rabitq_config=RaBitQConfig(seed=3), rng=17
    ).fit(small_data)


def _assert_matches_direct(searcher, handles) -> None:
    """Each response ≡ the direct call at the budget it actually got."""
    for handle in handles:
        served = handle.result(timeout=0)
        direct = searcher.search(
            handle.query, handle.k, nprobe=handle.nprobe_effective
        )
        np.testing.assert_array_equal(served.ids, direct.ids)
        np.testing.assert_array_equal(served.distances, direct.distances)
        assert served.n_candidates == direct.n_candidates
        assert served.n_exact == direct.n_exact


class _FrozenClock:
    """Injectable clock that only moves when the test says so."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _GateSearcher:
    """Delegating searcher whose ``search_batch`` blocks on a test gate."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batch_sizes: list[int] = []

    @property
    def dim(self) -> int:
        return self._inner.dim

    def search(self, query, k, *, nprobe=8):
        return self._inner.search(query, k, nprobe=nprobe)

    def search_batch(self, queries, k, *, nprobe=8):
        self.entered.set()
        if not self.gate.wait(timeout=30.0):
            raise RuntimeError("test gate never released")
        self.batch_sizes.append(int(np.asarray(queries).shape[0]))
        return self._inner.search_batch(queries, k, nprobe=nprobe)


class TestCoalescing:
    def test_single_submit_matches_direct_search(
        self, searcher, small_queries
    ):
        with ServingEngine(searcher, max_delay_us=0) as engine:
            for query in small_queries[:6]:
                served = engine.submit(query, 5, nprobe=3, timeout=30.0)
                direct = searcher.search(query, 5, nprobe=3)
                np.testing.assert_array_equal(served.ids, direct.ids)
                np.testing.assert_array_equal(served.distances, direct.distances)
                assert served.n_candidates == direct.n_candidates
                assert served.n_exact == direct.n_exact

    def test_concurrent_submits_replay_bit_identical(
        self, searcher, small_queries
    ):
        engine = ServingEngine(searcher, max_batch=8, max_delay_us=500)
        try:
            pending = [
                engine.submit_async(query, 7, nprobe=4)
                for query in small_queries
            ]
            engine.drain(timeout=30.0)
            assert engine.stats()["completed"] == len(small_queries)
            _assert_matches_direct(searcher, pending)
        finally:
            engine.close()

    def test_incompatible_requests_split_into_batches(self, searcher):
        # Park the worker on a decoy request, then queue a known mix:
        # grouping must be by (k, nprobe), FIFO within each group.
        gated = _GateSearcher(searcher)
        rng = np.random.default_rng(2)
        engine = ServingEngine(gated, max_batch=16, max_delay_us=0)
        try:
            decoy = engine.submit_async(rng.standard_normal(DIM), 3)
            assert gated.entered.wait(timeout=30.0)
            pending = []
            for k, nprobe in [(5, 2), (5, 2), (3, 2), (5, 2), (3, 4)]:
                pending.append(
                    engine.submit_async(
                        rng.standard_normal(DIM), k, nprobe=nprobe
                    )
                )
            gated.gate.set()
            for p in [decoy, *pending]:
                p.result(timeout=30.0)
            engine.drain(timeout=30.0)
        finally:
            engine.close()
        # decoy alone, then the three (5,2)s coalesce, then (3,2), (3,4).
        assert gated.batch_sizes == [1, 3, 1, 1]

    def test_max_batch_caps_group_size(self, searcher):
        gated = _GateSearcher(searcher)
        rng = np.random.default_rng(3)
        engine = ServingEngine(gated, max_batch=4, max_delay_us=0)
        try:
            decoy = engine.submit_async(rng.standard_normal(DIM), 3)
            assert gated.entered.wait(timeout=30.0)
            pending = [
                engine.submit_async(rng.standard_normal(DIM), 5, nprobe=2)
                for _ in range(10)
            ]
            gated.gate.set()
            for p in [decoy, *pending]:
                p.result(timeout=30.0)
            engine.drain(timeout=30.0)
        finally:
            engine.close()
        assert gated.batch_sizes == [1, 4, 4, 2]


class TestAdmissionControl:
    def test_queue_overflow_fast_fails(self, searcher):
        gated = _GateSearcher(searcher)
        rng = np.random.default_rng(4)
        engine = ServingEngine(gated, max_delay_us=0, max_queue_depth=3)
        try:
            decoy = engine.submit_async(rng.standard_normal(DIM), 3)
            assert gated.entered.wait(timeout=30.0)
            admitted = [
                engine.submit_async(rng.standard_normal(DIM), 3)
                for _ in range(3)
            ]
            with pytest.raises(AdmissionRejectedError):
                engine.submit_async(rng.standard_normal(DIM), 3)
            stats = engine.stats()
            assert stats["rejected_queue_full"] == 1
            assert stats["submitted"] == 4  # rejected request never admitted
            gated.gate.set()
            for p in [decoy, *admitted]:
                p.result(timeout=30.0)
        finally:
            engine.close()
        # Every *admitted* request was still answered.
        assert engine.stats()["completed"] == 4

    def test_expired_deadline_rejected_at_submit(self, searcher, small_queries):
        with ServingEngine(searcher, max_delay_us=0) as engine:
            with pytest.raises(AdmissionRejectedError):
                engine.submit(small_queries[0], 3, deadline=0.0)
            with pytest.raises(AdmissionRejectedError):
                engine.submit(small_queries[0], 3, deadline=-1.0)
            assert engine.stats()["rejected_deadline"] == 2

    def test_submit_validation(self, searcher, small_queries):
        with ServingEngine(searcher, max_delay_us=0) as engine:
            with pytest.raises(InvalidParameterError):
                engine.submit(small_queries[0], 0)
            with pytest.raises(InvalidParameterError):
                engine.submit(small_queries[0], 3, nprobe=0)
            with pytest.raises(InvalidParameterError):
                engine.submit(np.ones(DIM + 1), 3)
            with pytest.raises(InvalidParameterError):
                engine.submit(small_queries[0], 3, deadline=float("inf"))
            assert engine.stats()["submitted"] == 0

    def test_constructor_validation(self, searcher):
        with pytest.raises(InvalidParameterError):
            ServingEngine(searcher, max_batch=0)
        with pytest.raises(InvalidParameterError):
            ServingEngine(searcher, max_delay_us=-1)
        with pytest.raises(InvalidParameterError):
            ServingEngine(searcher, max_queue_depth=0)
        with pytest.raises(InvalidParameterError):
            ServingEngine(object())  # no dim


class TestDeadlineDegradation:
    def test_frozen_clock_degradation_is_deterministic(self, searcher):
        # seconds_per_probe pinned at 1 ms: a request with r seconds left
        # affords exactly int(r / 0.001) probes.  The frozen clock never
        # advances, so "remaining" equals the submitted deadline and the
        # observe() path never updates the model (zero elapsed ignored).
        clock = _FrozenClock()
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((4, DIM))
        cases = [  # (deadline, expected effective nprobe for requested 8)
            (None, 8),
            (0.1, 8),  # affords 100 probes, capped at requested
            (0.0045, 4),
            (0.0011, 1),  # affords 1, floor is min_nprobe=1
        ]
        engine = ServingEngine(
            searcher,
            max_delay_us=0,
            budget=BudgetController(
                min_nprobe=1, initial_seconds_per_probe=1e-3
            ),
            clock=clock,
        )
        try:
            handles = []
            for query, (deadline, _) in zip(queries, cases):
                handles.append(
                    engine.submit_async(query, 5, nprobe=8, deadline=deadline)
                )
                handles[-1].result(timeout=30.0)
            engine.drain(timeout=30.0)
        finally:
            engine.close()
        assert [handle.nprobe_effective for handle in handles] == [
            expected for _, expected in cases
        ]
        assert all(handle.nprobe == 8 for handle in handles)
        # Degraded answers are still bit-identical to direct searches at
        # the *effective* budget.
        _assert_matches_direct(searcher, handles)
        stats = engine.stats()
        assert stats["degraded_requests"] == 2
        assert stats["deadline_misses"] == 0  # clock never advanced

    def test_blown_deadline_gets_floor_budget_and_counts_as_miss(
        self, searcher
    ):
        clock = _FrozenClock()
        gated = _GateSearcher(searcher)
        rng = np.random.default_rng(6)
        engine = ServingEngine(
            gated,
            max_delay_us=0,
            budget=BudgetController(
                min_nprobe=2, initial_seconds_per_probe=1e-3
            ),
            clock=clock,
        )
        try:
            decoy = engine.submit_async(rng.standard_normal(DIM), 3)
            assert gated.entered.wait(timeout=30.0)
            # Admitted with 5 ms of headroom; the clock then jumps past it
            # while the request is still queued behind the gate.
            late = engine.submit_async(
                rng.standard_normal(DIM), 3, nprobe=8, deadline=0.005
            )
            clock.advance(1.0)
            gated.gate.set()
            decoy.result(timeout=30.0)
            late.result(timeout=30.0)
            engine.drain(timeout=30.0)
        finally:
            engine.close()
        assert late.nprobe_effective == 2  # the min_nprobe floor
        stats = engine.stats()
        assert stats["deadline_misses"] == 1
        assert stats["deadline_miss_rate"] == pytest.approx(0.5)

    def test_observe_trains_the_ewma(self):
        controller = BudgetController(alpha=0.5)
        assert controller.seconds_per_probe is None
        assert controller.effective_nprobe(8, 0.001) == 8  # untrained: no-op
        controller.observe(4, 2, 0.08)  # 0.08 / 8 = 0.01 per (query x probe)
        assert controller.seconds_per_probe == pytest.approx(0.01)
        controller.observe(1, 1, 0.02)
        assert controller.seconds_per_probe == pytest.approx(0.015)
        controller.observe(1, 1, 0.0)  # ignored
        controller.observe(1, 1, -1.0)  # ignored
        assert controller.seconds_per_probe == pytest.approx(0.015)
        assert controller.effective_nprobe(8, 0.045) == 3

    def test_budget_validation(self):
        with pytest.raises(InvalidParameterError):
            BudgetController(min_nprobe=0)
        with pytest.raises(InvalidParameterError):
            BudgetController(alpha=1.5)
        with pytest.raises(InvalidParameterError):
            BudgetController(safety=0.0)
        with pytest.raises(InvalidParameterError):
            BudgetController(initial_seconds_per_probe=0.0)
        with pytest.raises(InvalidParameterError):
            BudgetController().observe(0, 1, 0.1)


class TestLifecycle:
    def test_close_answers_queued_requests(self, searcher):
        gated = _GateSearcher(searcher)
        rng = np.random.default_rng(7)
        engine = ServingEngine(gated, max_delay_us=0)
        decoy = engine.submit_async(rng.standard_normal(DIM), 3)
        assert gated.entered.wait(timeout=30.0)
        queued = [
            engine.submit_async(rng.standard_normal(DIM), 3) for _ in range(5)
        ]
        gated.gate.set()
        engine.close()  # drains: every admitted request completes
        for p in [decoy, *queued]:
            assert p.done()
            assert p.result(timeout=0).ids.shape == (3,)
        with pytest.raises(ServingError):
            engine.submit(rng.standard_normal(DIM), 3)
        engine.close()  # idempotent

    def test_worker_failure_surfaces_to_caller(self, searcher, small_queries):
        class Exploding:
            dim = DIM

            def search_batch(self, queries, k, *, nprobe=8):
                raise RuntimeError("boom")

        with ServingEngine(Exploding(), max_delay_us=0) as engine:
            pending = engine.submit_async(small_queries[0], 3)
            with pytest.raises(ServingError, match="boom"):
                pending.result(timeout=30.0)
            stats = engine.stats()
            assert stats["failed"] == 1
            assert stats["completed"] == 0
        # The worker survives a failing batch: subsequent engines unaffected
        # and the failed request still unblocked drain().

    def test_result_timeout(self, searcher, small_queries):
        gated = _GateSearcher(searcher)
        engine = ServingEngine(gated, max_delay_us=0)
        try:
            pending = engine.submit_async(small_queries[0], 3)
            with pytest.raises(ServingError, match="not answered"):
                pending.result(timeout=0.05)
            gated.gate.set()
            assert pending.result(timeout=30.0).ids.shape == (3,)
        finally:
            engine.close()

    def test_latency_recorder_counts_completions(self, searcher, small_queries):
        with ServingEngine(searcher, max_delay_us=0) as engine:
            for query in small_queries[:5]:
                engine.submit(query, 3, timeout=30.0)
            engine.drain(timeout=30.0)
            assert engine.latency.count == 5
            assert engine.latency.p99 >= 0.0
            summary = engine.latency.summary_ms()
            assert summary["count"] == 5

    def test_stats_batch_fill_accounting(self, searcher, small_queries):
        gated = _GateSearcher(searcher)
        engine = ServingEngine(gated, max_batch=8, max_delay_us=0)
        try:
            decoy = engine.submit_async(small_queries[0], 3)
            assert gated.entered.wait(timeout=30.0)
            pending = [
                engine.submit_async(query, 3) for query in small_queries[1:7]
            ]
            gated.gate.set()
            for p in [decoy, *pending]:
                p.result(timeout=30.0)
            engine.drain(timeout=30.0)
            stats = engine.stats()
        finally:
            engine.close()
        assert stats["batches"] == 2
        assert stats["batched_requests"] == 7
        assert stats["max_batch_fill"] == 6
        assert stats["mean_batch_fill"] == pytest.approx(3.5)
