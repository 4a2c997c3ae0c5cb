"""Property suite: coalescing equivalence under random interleavings.

Hypothesis drives randomized serving schedules — waves of concurrent
``submit`` calls with mixed ``(k, nprobe)`` parameters, optional
insert/delete mutations between waves, varying engine knobs — and the
invariant checked after every wave is always the same:

    every response equals ``search(handle.query, handle.k,
    nprobe=handle.nprobe_effective)`` asked directly of the serving
    searcher after ``drain()``, bit for bit.

Search is a pure function of (index, query), so this holds whatever each
request was batched with and whatever ran before it; no twin and no log of
the execution order are needed.  A second property pins the
deadline-degradation path: under a frozen clock the engine's effective
``nprobe`` choices must equal the budget controller's pure-function
forecast, and an identical schedule re-run from scratch must give every
handle the identical ``(nprobe_effective, ids, distances)``.

A final non-Hypothesis test drives genuinely concurrent submitters
through a thread barrier: the interleaving is nondeterministic, and the
per-response check holds regardless.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import RaBitQConfig
from repro.index.searcher import IVFQuantizedSearcher
from repro.serving import BudgetController, ServingEngine

DIM = 16
N_BASE = 200

_BASE_DATA = np.random.default_rng(42).standard_normal((N_BASE, DIM))
_QUERY_POOL = np.random.default_rng(43).standard_normal((32, DIM))


def _make_searcher() -> IVFQuantizedSearcher:
    return IVFQuantizedSearcher(
        "rabitq", n_clusters=6, rabitq_config=RaBitQConfig(seed=11), rng=23
    ).fit(_BASE_DATA)


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


# One request: (query pool index, k, nprobe).
_request = st.tuples(
    st.integers(min_value=0, max_value=_QUERY_POOL.shape[0] - 1),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=8),
)

# One wave: up to a dozen requests plus an optional mutation applied to
# the searcher after the wave drains ("insert" adds seeded fresh vectors,
# "delete" removes a base id that is still live).
_wave = st.tuples(
    st.lists(_request, min_size=1, max_size=12),
    st.sampled_from(["none", "insert", "delete"]),
)


@settings(deadline=None)
@given(
    waves=st.lists(_wave, min_size=1, max_size=3),
    max_batch=st.integers(min_value=1, max_value=8),
    max_delay_us=st.sampled_from([0, 200]),
    data=st.data(),
)
def test_interleaved_submits_replay_bit_identical(
    waves, max_batch, max_delay_us, data
):
    serving = _make_searcher()
    engine = ServingEngine(
        serving, max_batch=max_batch, max_delay_us=max_delay_us
    )
    mutation_rng = np.random.default_rng(7)
    completed = 0
    try:
        for requests, mutation in waves:
            pending = [
                engine.submit_async(_QUERY_POOL[qi], k, nprobe=nprobe)
                for qi, k, nprobe in requests
            ]
            engine.drain(timeout=30.0)
            completed += len(requests)
            assert engine.stats()["completed"] == completed
            # The core invariant: each of the wave's responses equals the
            # direct call on the serving searcher, bit for bit.
            _assert_matches_direct(serving, pending)

            # Mutate before the next wave (the engine is idle after
            # drain, so the searcher is safe to mutate).
            if mutation == "insert":
                serving.insert(mutation_rng.standard_normal((3, DIM)))
            elif mutation == "delete":
                live = serving.live_ids
                victim = int(live[data.draw(
                    st.integers(min_value=0, max_value=live.shape[0] - 1)
                )])
                serving.delete([victim])
    finally:
        engine.close()


@settings(deadline=None)
@given(
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=_QUERY_POOL.shape[0] - 1),
            st.integers(min_value=1, max_value=16),  # requested nprobe
            st.one_of(
                st.none(),
                st.floats(
                    min_value=1e-4,
                    max_value=0.05,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
        ),
        min_size=1,
        max_size=10,
    ),
    min_nprobe=st.integers(min_value=1, max_value=4),
)
def test_frozen_clock_degradation_matches_pure_forecast(schedule, min_nprobe):
    # With a frozen clock and a seeded, never-updating model (zero elapsed
    # observations are ignored), the engine's per-request effective nprobe
    # must equal the controller's pure function of (requested, deadline) —
    # and a from-scratch re-run of the same schedule must agree exactly.
    spp = 1e-3

    def run_once():
        # Frozen at 0.0 so the engine's absolute-deadline round trip
        # ``(now + deadline) - now`` returns ``deadline`` exactly; at a
        # non-zero origin it is off by an ulp, which moves the floor() in
        # the budget policy (0.01 s -> 9 probes instead of the oracle's 10).
        clock_value = 0.0
        engine = ServingEngine(
            _make_searcher(),
            max_delay_us=0,  # a frozen clock never expires the window
            budget=BudgetController(
                min_nprobe=min_nprobe, initial_seconds_per_probe=spp
            ),
            clock=lambda: clock_value,
        )
        try:
            handles = []
            for qi, nprobe, deadline in schedule:
                handles.append(
                    engine.submit_async(
                        _QUERY_POOL[qi], 3, nprobe=nprobe, deadline=deadline
                    )
                )
                handles[-1].result(timeout=30.0)
            engine.drain(timeout=30.0)
            _assert_matches_direct(engine.searcher, handles)
            return handles
        finally:
            engine.close()

    oracle = BudgetController(
        min_nprobe=min_nprobe, initial_seconds_per_probe=spp
    )
    first = run_once()
    assert [handle.nprobe_effective for handle in first] == [
        oracle.effective_nprobe(nprobe, deadline)
        for _, nprobe, deadline in schedule
    ]
    second = run_once()
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.nprobe_effective == b.nprobe_effective
        np.testing.assert_array_equal(a.result().ids, b.result().ids)
        np.testing.assert_array_equal(
            a.result().distances, b.result().distances
        )


def test_barrier_concurrent_submitters_replay_bit_identical():
    # Real concurrency: 8 threads released together, each submitting a
    # burst.  Whatever interleaving the scheduler produces, every response
    # must still equal the direct call, bit for bit.
    serving = _make_searcher()
    n_threads, per_thread = 8, 6
    barrier = threading.Barrier(n_threads)
    engine = ServingEngine(serving, max_batch=8, max_delay_us=300)
    try:
        def submitter(tid):
            barrier.wait()
            handles = []
            for i in range(per_thread):
                qi = (tid * per_thread + i) % _QUERY_POOL.shape[0]
                handles.append(
                    engine.submit_async(
                        _QUERY_POOL[qi], 4 + (tid % 3), nprobe=2 + (i % 3)
                    )
                )
            for handle in handles:
                handle.result(timeout=30.0)
            return handles

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            handles = list(pool.map(submitter, range(n_threads)))
        engine.drain(timeout=30.0)
        stats = engine.stats()
        assert stats["completed"] == n_threads * per_thread
        assert stats["failed"] == 0
        assert all(len(h) == per_thread for h in handles)
        _assert_matches_direct(serving, [h for hs in handles for h in hs])
    finally:
        engine.close()
