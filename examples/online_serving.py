"""Online serving: micro-batched concurrent queries with deadlines.

Production traffic is concurrent single queries, not pre-formed batches —
yet the batch engine does less work per query than single calls only once
micro-batches grow large (at B=1 from about 64 rows per call; see
``perf/``'s ``index.searcher.batch_ms_per_query_b*``).  This example walks
the serving front end that converts one into the other:

1. point a ``ServingEngine`` at a fitted ``IVFQuantizedSearcher`` — a
   worker thread coalesces concurrent ``submit`` calls that share
   ``(k, nprobe)`` into ``search_batch`` micro-batches, bounded by
   ``max_batch`` (size) and ``max_delay_us`` (collection window);
2. fire a burst of requests from client threads and read the engine's
   ``stats()``: batch fill shows how much coalescing happened, and the
   built-in ``LatencyRecorder`` reports exact nearest-rank p50/p95/p99;
3. verify the coalescing contract: search is a pure function of
   (index, query), so every response equals a direct ``search`` call on
   the same searcher at the probe budget the request actually got, bit
   for bit — whatever it was batched with;
4. attach a ``BudgetController`` and submit with tight deadlines: the
   engine degrades ``nprobe`` per request from an EWMA service-time
   model instead of blowing the deadline outright, and over-tight
   deadlines are rejected at submit time (admission control), as is
   everything beyond the bounded queue depth.

Run with:  python examples/online_serving.py
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import RaBitQConfig
from repro.exceptions import AdmissionRejectedError
from repro.index.searcher import IVFQuantizedSearcher
from repro.serving import BudgetController, ServingEngine
from _example_scale import scaled as _scaled


def main() -> None:
    rng = np.random.default_rng(11)
    dim = 64
    data = rng.standard_normal((_scaled(4000), dim))
    n_requests = 64
    queries = rng.standard_normal((n_requests, dim))
    k, nprobe = 5, 8

    serving = IVFQuantizedSearcher(
        "rabitq", n_clusters=32, rabitq_config=RaBitQConfig(seed=0), rng=0
    ).fit(data)

    # -- 1 + 2. coalesce a concurrent burst ---------------------------- #
    with ServingEngine(
        serving,
        max_batch=32,
        max_delay_us=5000,
        max_queue_depth=n_requests,
    ) as engine:
        def client(chunk):
            # One request in flight per client; the handle is kept because
            # it records the probe budget the request actually got.
            handles = []
            for q in chunk:
                handles.append(engine.submit_async(q, k, nprobe=nprobe))
                handles[-1].result()
            return handles

        with ThreadPoolExecutor(max_workers=4) as pool:
            handles = [
                h
                for chunk in pool.map(client, [queries[c::4] for c in range(4)])
                for h in chunk
            ]
        stats = engine.stats()
        latency = engine.latency.summary_ms()

    print(f"answered {stats['completed']}/{n_requests} concurrent requests")
    print(
        f"micro-batches: {stats['batches']} "
        f"(mean fill {stats['mean_batch_fill']:.1f}, "
        f"max {stats['max_batch_fill']})"
    )
    print(
        f"enqueue-to-answer latency: p50 {latency['p50_ms']}ms "
        f"p95 {latency['p95_ms']}ms p99 {latency['p99_ms']}ms"
    )
    assert len(handles) == n_requests

    # -- 3. the coalescing contract, checked against direct calls ------- #
    for handle in handles[:3]:
        served = handle.result()
        direct = serving.search(
            handle.query, handle.k, nprobe=handle.nprobe_effective
        )
        assert np.array_equal(served.ids, direct.ids)
        assert np.array_equal(served.distances, direct.distances)
    print("3 coalesced responses re-asked directly: bit-identical")

    # -- 4. deadlines: degradation and admission control ---------------- #
    budget = BudgetController(min_nprobe=2, initial_seconds_per_probe=None)
    with ServingEngine(
        serving,
        max_batch=32,
        max_delay_us=1000,
        max_queue_depth=8,
        budget=budget,
    ) as engine:
        # Warm the EWMA service-time model with a few unconstrained calls.
        for q in queries[:8]:
            engine.submit(q, k, nprobe=nprobe)
        spp = budget.seconds_per_probe
        print(f"EWMA service-time model: {spp * 1e6:.1f}us per (query x probe)")

        # A deadline worth ~half the full-probe budget: the engine degrades
        # nprobe instead of missing.
        tight = spp * nprobe * 0.5
        degraded = engine.submit_async(
            queries[8], k, nprobe=nprobe, deadline=tight
        )
        degraded.result()
        print(
            f"deadline {tight * 1e3:.2f}ms: nprobe degraded "
            f"{degraded.nprobe} -> {degraded.nprobe_effective}"
        )
        assert degraded.nprobe_effective < degraded.nprobe

        # Impossible deadlines never enter the queue.
        try:
            engine.submit(queries[9], k, nprobe=nprobe, deadline=0.0)
        except AdmissionRejectedError as exc:
            print(f"admission control: {exc}")
        print(
            f"degraded {engine.stats()['degraded_requests']} request(s), "
            f"rejected {engine.stats()['rejected']} at the door"
        )


if __name__ == "__main__":
    main()
