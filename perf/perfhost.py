"""How fast the host is running right now, measured beside every segment.

This benchmark runs on shared 2-vCPU hosts that change pace for seconds at a
time: the same fixed segment of 1,000 queries runs at 940 q/s, then at
1,250 q/s five segments later, and CPU time tracks wall time (the machine is
slower; nothing waits).  So a small fixed numpy kernel, shaped like one
query's estimation (unpack a cluster's codes, one GEMV, an affine pass, a
selection), is timed before and after every segment, and the segment's
timings are scaled by the pace it found: a rate is divided by the speed
factor, a duration multiplied by it.  Within a run the factor follows the
segment's throughput with a correlation of 0.9, across runs 0.8, and
throughput divided by it stays within 3 %.

The factor is the kernel's pace over ``REFERENCE_PASSES_PER_S``.  That
constant is a unit, not a property of a host: timings read "on a machine
that runs this kernel 9,000 times a second".  It has to be the same number
in every run for two runs to be comparable, because a host spends whole
runs at one pace and whole runs at another; a reference taken from the run
itself (its median pace, say) would only iron out a run's own segments and
leave the 30 % between a slow run and a fast one in the reported values.
Both sides of any comparison are scaled alike.  The factor itself is
reported (``bench.host_speed``; ``host_speed`` in ``result.json``), so the
timings as measured can be had back by dividing.

This is the only correction applied: the value of a metric is the plain
median over its segments.  The kernel is benchmark code and never calls the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel passes per second that count as speed factor 1.0 (the sizing host's
#: slower pace).  A unit of the reported timings: never tune it to a host.
REFERENCE_PASSES_PER_S = 9000.0

_CLUSTERS, _ROWS, _DIM = 12, 140, 128


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._codes = [
            (rng.random((_ROWS, _DIM)) > 0.5).astype(np.uint8) for _ in range(_CLUSTERS)
        ]
        self._query = rng.standard_normal(_DIM)
        self._unpacked = np.empty((_ROWS, _DIM))
        self.samples: list[float] = []

    def measure(self, passes: int = 150) -> float:
        """Speed factor now: 1.0 at the reference pace, 0.5 when twice as slow."""
        unpacked, query = self._unpacked, self._query
        start = time.perf_counter()
        for _ in range(passes):
            for codes in self._codes:
                np.copyto(unpacked, codes, casting="unsafe")
                dots = unpacked @ query
                dots *= 0.5
                dots += 1.0
            np.argsort(dots)[:10]
        factor = passes / (time.perf_counter() - start) / REFERENCE_PASSES_PER_S
        self.samples.append(factor)
        return factor

    def around(self, fn, *args, **kwargs):
        """Run ``fn`` between two measurements; return ``(result, mean factor)``."""
        before = self.measure()
        out = fn(*args, **kwargs)
        return out, (before + self.measure()) / 2.0
