"""Statistics, schedules and latency accounting of the benchmark.

Nothing here imports the program under test: these helpers are what
``test_perf_helpers.py`` pins, so that a number printed by ``run.py`` means
what ``README.md`` says it means.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the sample at 1-based rank ``ceil(q/100 * n)``.

    Always an observed value (never an interpolation), the same definition
    as the program's own ``LatencyRecorder``.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(median), float(q3)


def summarize(values: Sequence[float], unit: str) -> dict:
    """One metric from its per-segment samples: the median, with both
    quartiles and the sample count alongside."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def constant(value: float, unit: str) -> dict:
    """A metric measured once (a count, a size, a whole-run ratio)."""
    return summarize([float(value)], unit)


def poisson_schedule(rate: float, n_requests: int, rng) -> np.ndarray:
    """Due times (seconds from phase start) of ``n_requests`` Poisson arrivals.

    The request count is fixed, not the duration, so two builds are offered
    exactly the same requests at exactly the same instants.
    """
    if rate <= 0.0 or n_requests < 1:
        raise ValueError("rate and n_requests must be positive")
    generator = np.random.default_rng(rng)
    return np.cumsum(generator.exponential(1.0 / rate, size=n_requests))


def account_latencies(
    due: np.ndarray, done: np.ndarray, limit_s: float
) -> dict:
    """Open-loop accounting, timed from the instant each request was *due*.

    ``done[i]`` is the completion time of request ``i`` or NaN when it was
    rejected, failed or never completed; such a request misses the limit.
    Latencies are reported for completed requests, the good share over
    every request sent.
    """
    due = np.asarray(due, dtype=np.float64)
    done = np.asarray(done, dtype=np.float64)
    if due.shape != done.shape:
        raise ValueError("need one completion slot per due time")
    completed = ~np.isnan(done)
    latencies = done[completed] - due[completed]
    good = int(np.count_nonzero(latencies <= limit_s))
    return {
        "sent": int(due.shape[0]),
        "completed": int(np.count_nonzero(completed)),
        "good": good,
        "good_frac": good / due.shape[0] if due.shape[0] else 0.0,
        "latencies_ms": latencies * 1e3,
    }
