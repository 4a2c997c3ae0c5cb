"""Pins what the benchmark's numbers mean: percentiles, schedules, due-time
latency accounting, span arithmetic and the manifest's own limits."""

import json
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import perfload  # noqa: E402
from perfstats import (  # noqa: E402
    account_latencies,
    percentile,
    poisson_schedule,
    quartiles,
    summarize,
)
from perftrace import (  # noqa: E402
    PROBE,
    RERANK,
    Tracer,
    closure_error,
    self_times,
    traced_search_path,
)


# -- statistics ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(samples, 50) == 5  # the lower median: an observed value
    assert percentile(samples, 90) == 9
    assert percentile(samples, 99) == 10
    assert percentile(samples, 0) == 1
    assert percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(samples, 101)


def test_segment_summary_is_the_median_with_quartiles_alongside():
    values = [10.0, 12.0, 11.0, 30.0, 10.5, 11.5]  # one segment hit by the host
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summarize(values, "ms") == {"value": median, "unit": "ms", "q1": q1, "q3": q3, "n": 6}
    assert median == statistics.median(values) == 11.25  # the slow segment does not move it
    assert summarize([3.0, 1.0, 2.0], "s")["value"] == 2.0
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_side_with_wrong_answers_makes_the_comparison_invalid():
    # (attempted, failed, runs that failed a correctness check)
    assert compare.validity((1000, 0, 0), (1000, 0, 0)) == ""
    assert compare.validity((1000, 2, 0), (2000, 4, 0)) == ""  # the same share
    assert "more operations" in compare.validity((1000, 2, 0), (1000, 3, 0))
    assert "1 run(s) of B failed" in compare.validity((1000, 0, 0), (1000, 0, 1))
    assert compare.validity((1000, 0, 2), (1000, 0, 0)).startswith("2 run(s) of A")


# -- open-loop schedule and accounting ------------------------------------


def test_poisson_schedule_is_seeded_and_has_the_rate():
    first = poisson_schedule(200.0, 20_000, [3, 1])
    again = poisson_schedule(200.0, 20_000, [3, 1])
    other = poisson_schedule(200.0, 20_000, [3, 2])
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0.0)
    assert 20_000 / first[-1] == pytest.approx(200.0, rel=0.02)
    # Exponential gaps: their spread equals their mean.
    gaps = np.diff(first)
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.05)


def test_latency_is_timed_from_due_and_a_lost_request_misses():
    due = np.array([0.0, 1.0, 2.0, 3.0])
    done = np.array([0.012, 1.2, np.nan, 3.04])
    account = account_latencies(due, done, limit_s=0.05)
    assert account["sent"] == 4 and account["completed"] == 3
    assert account["good"] == 2
    assert account["good_frac"] == 0.5  # over requests sent, not over those answered
    assert account["latencies_ms"] == pytest.approx([12.0, 200.0, 40.0])


def test_late_generator_still_counts_from_due():
    """A submit that blocks makes the generator late; lateness is sent - due."""
    now = [0.0]

    def submit(i):
        now[0] += 0.036  # every submit takes 36 ms; requests fall due every 12 ms

    due = np.arange(10) * 0.012
    start, sent = perfload.drive_open_loop(
        submit, due, clock=lambda: now[0], sleep=lambda s: now.__setitem__(0, now[0] + s)
    )
    late = sent - (start + due)
    assert late[0] == 0.0
    assert np.all(np.diff(late) > 0.0)  # it never catches up, and says so
    assert late[-1] == pytest.approx(9 * 0.024)


class _Answer:
    n_exact = n_candidates = 1

    def __init__(self):
        self.ids = np.arange(10)
        self.distances = np.arange(10, dtype=np.float64)


class _StallingSearcher:
    """Answers instantly, except that its first call takes ``stall`` seconds."""

    dim = 8

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def search_batch(self, queries, k, *, nprobe=8):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        return [_Answer() for _ in queries]


def test_a_stall_lengthens_the_requests_due_behind_it():
    queries = np.random.default_rng(0).standard_normal((60, 8))
    smooth = perfload.run_phase(_StallingSearcher(0.0), queries, 200.0, 5, k=10, nprobe=4)
    stalled = perfload.run_phase(_StallingSearcher(0.25), queries, 200.0, 5, k=10, nprobe=4)
    for phase in (smooth, stalled):
        assert phase.accounting_closes()
        assert phase.account["completed"] == 60
    assert np.array_equal(smooth.due - smooth.due[0], stalled.due - stalled.due[0])
    latency = stalled.done - stalled.due
    # One call stalled, but every request that fell due during the stall
    # waited for it: an open loop charges the stall to all of them.
    behind = np.flatnonzero(
        (stalled.due > stalled.due[0]) & (stalled.due < stalled.due[0] + 0.2)
    )
    assert behind.size >= 10
    assert np.all(latency[behind] >= stalled.due[0] + 0.2 - stalled.due[behind])
    assert stalled.account["good"] < smooth.account["good"]
    assert np.median(smooth.done - smooth.due) < 0.02


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        ["parent", 0.0, 10.0, None, None],
        ["child", 1.0, 3.0, 0, None],
        ["child", 2.0, 5.0, 0, None],  # overlaps the first: covered 1..5 in all
        ["child", 7.0, 8.0, 0, None],
        ["grandchild", 7.2, 7.7, 3, None],
    ]
    selfs = self_times(spans)
    assert selfs["parent"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["child"] == pytest.approx(2.0 + 3.0 + 0.5)
    assert selfs["grandchild"] == pytest.approx(0.5)


def test_closure_compares_layer_self_time_with_the_enclosing_span():
    def spans(search_end):
        return [
            ["bench.segment", 0.0, 10.0, None, None],
            ["search", 0.0, search_end, 0, None],
            ["probe", 1.0, 2.0, 1, None],
            ["stray", 0.0, 100.0, None, None],  # not under a segment: ignored
        ]

    assert closure_error(spans(9.5), "bench.segment") == pytest.approx(0.05)
    assert closure_error(spans(8.0), "bench.segment") == pytest.approx(0.20)  # > 10 %: fails
    with pytest.raises(ValueError):
        closure_error(spans(9.5), "absent")


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    with tracer.span("outer", request=7) as outer:
        with tracer.span("inner") as inner:
            pass
    after = tracer.add("late", 1.0, 2.0, parent=outer)
    assert tracer.spans[outer][3] is None and tracer.spans[outer][4] == 7
    assert tracer.spans[inner][3] == outer
    assert tracer.spans[after][3] == outer
    assert tracer.spans[inner][1] >= tracer.spans[outer][1]
    assert tracer.spans[inner][2] <= tracer.spans[outer][2]


def test_search_path_proxies_time_probe_and_rerank_and_are_removed():
    from repro.index import IVFQuantizedSearcher

    data = np.random.default_rng(0).standard_normal((400, 64))
    searcher = IVFQuantizedSearcher("rabitq", n_clusters=4, rng=0).fit(data)
    reranker = searcher.reranker
    tracer, stats = Tracer(), {}
    with traced_search_path(searcher, tracer, stats):
        with tracer.span("search") as root:
            searcher.search(data[0], 5, nprobe=2)
        searcher.search_batch(data[:3], 5, nprobe=2)
    names = [row[0] for row in tracer.spans]
    assert names.count(PROBE) == 2 and names.count(RERANK) == 2
    assert tracer.spans[names.index(PROBE)][3] == root
    assert stats["n_key_evals"] == 4 * 4  # 4 queries x 4 centroids
    assert searcher.reranker is reranker
    assert "probe" not in vars(searcher.ivf) and "probe_batch" not in vars(searcher.ivf)


# -- the manifest -----------------------------------------------------------


def test_manifest_names_the_workloads_and_stays_within_the_contract():
    from workloads import WORKLOADS

    with open(PERF.parent / "BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["perf"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for spec in manifest["workloads"]:
        assert spec["why"] == WORKLOADS[spec["name"]].why and len(spec["why"]) <= 200
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 1 <= len(manifest["per_layer"]) <= 128
    runs = 4 + 22 * len(manifest["workloads"])
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert runs * manifest["run_seconds"] < 3420
