"""Archived-stream gate: the L2 serving path is frozen bit for bit.

``tests/data/l2_stream_gate.json`` pins the exact answers — ids, distances
and ``n_exact`` cost counters — that the pre-metric-refactor implementation
produced for a fixed ``fit -> insert -> delete -> compact -> save -> load``
lifecycle (those entries were generated by the PR 4 build), and, per
checkpoint, the raw estimates of the same queries under ``NoReranker`` (see
``tests/data/gen_l2_stream_gate.py`` for which build pinned which layer).
Replaying the identical scenario here and comparing element-wise proves
that the metric-generic refactor — and any later change — left the
``metric="l2"`` arithmetic untouched, not just "approximately equal".
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

_DATA_DIR = Path(__file__).resolve().parent / "data"
_FIXTURE = _DATA_DIR / "l2_stream_gate.json"

# The generator module owns the scenario (sizes, seeds, lifecycle ops); the
# test replays exactly what it would regenerate, so the two can never drift.
_spec = importlib.util.spec_from_file_location(
    "gen_l2_stream_gate", _DATA_DIR / "gen_l2_stream_gate.py"
)
_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gen)


def test_fixture_matches_scenario_constants():
    doc = json.loads(_FIXTURE.read_text())
    scenario = doc["scenario"]
    assert scenario["n"] == _gen.N
    assert scenario["dim"] == _gen.DIM
    assert scenario["n_clusters"] == _gen.N_CLUSTERS
    assert scenario["k"] == _gen.K
    assert scenario["nprobe"] == _gen.NPROBE
    assert scenario["delete_ids"] == _gen.DELETE_IDS


def test_l2_results_unchanged_across_lifecycle():
    expected = json.loads(_FIXTURE.read_text())["stream"]
    got = _gen.run_stream()
    assert sorted(got) == sorted(expected)  # fixture JSON is key-sorted
    for checkpoint, want in expected.items():
        have = got[checkpoint]
        assert have["n_exact"] == want["n_exact"], checkpoint
        # JSON floats round-trip float64 exactly, so equality is exact.
        for field in ("ids", "distances", "raw_ids", "raw_distances"):
            for qi, want_row in enumerate(want[field]):
                np.testing.assert_array_equal(
                    np.asarray(have[field][qi]),
                    np.asarray(want_row),
                    err_msg=f"{checkpoint}: {field} diverged for query {qi}",
                )
