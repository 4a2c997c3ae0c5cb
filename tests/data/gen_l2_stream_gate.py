#!/usr/bin/env python
"""Regenerate the archived L2 result-stream fixture (``l2_stream_gate.json``).

The fixture pins the *exact* answers — ids, distances and ``n_exact``
cost counters — that a ``metric="l2"`` :class:`IVFQuantizedSearcher`
produces across a fixed ``fit -> insert -> delete -> compact -> save ->
load`` lifecycle.  ``tests/test_l2_stream_gate.py`` replays the identical
scenario and compares bit for bit, so any refactor that changes the L2
serving path's arithmetic (rather than just its layout) fails loudly.

Two layers are pinned per checkpoint.  ``ids`` / ``distances`` /
``n_exact`` are the re-ranked answers, generated by the pre-metric-refactor
implementation (PR 4 state) and byte-identical since: they are exact
distances of the winners, so they survive any change that keeps the same
winners and the same re-rank work.  ``raw_ids`` / ``raw_distances`` are the
same queries under ``NoReranker`` — the estimates themselves, which depend
on every bit of the kernel and on the index's rounding vector.  They were
added when the index started keeping one rounding vector, and were
re-based once since, when query preparation started rotating each query
once and subtracting the rotated centroids (``(P^-1 q - P^-1 c) /
||q - c||`` instead of ``P^-1`` of each unit residual, with ``||q - c||``
from a row-wise ``einsum``): 110 of the 150 raw distances moved, by at most
5.0e-14, and no other field.  Regenerate only when an *intentional*,
documented output change lands:

    PYTHONPATH=src python tests/data/gen_l2_stream_gate.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import RaBitQConfig  # noqa: E402
from repro.index.rerank import NoReranker  # noqa: E402
from repro.index.searcher import IVFQuantizedSearcher  # noqa: E402
from repro.io.persistence import load_searcher, save_searcher  # noqa: E402

OUT = Path(__file__).resolve().parent / "l2_stream_gate.json"

#: Scenario constants — must match tests/test_l2_stream_gate.py exactly.
N, DIM, N_CLUSTERS = 400, 24, 8
N_QUERIES, K, NPROBE = 6, 5, 3
DATA_SEED, CONFIG_SEED, SEARCHER_SEED = 11, 7, 3
N_INSERT = 30
DELETE_IDS = list(range(0, 120, 7)) + [399, 410]


def build_scenario():
    rng = np.random.default_rng(DATA_SEED)
    data = rng.standard_normal((N, DIM))
    extra = rng.standard_normal((N_INSERT, DIM))
    queries = rng.standard_normal((N_QUERIES, DIM))
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(seed=CONFIG_SEED),
        rng=SEARCHER_SEED,
        compact_threshold=None,
    )
    return searcher, data, extra, queries


def checkpoint(searcher, queries) -> dict:
    """Sequential answers for every query, re-ranked and then raw."""
    out = {}
    original = searcher.reranker
    for prefix, reranker in (("", original), ("raw_", NoReranker())):
        searcher.reranker = reranker
        results = [searcher.search(q, K, nprobe=NPROBE) for q in queries]
        out[prefix + "ids"] = [[int(i) for i in r.ids] for r in results]
        # float64 -> shortest-repr JSON floats round-trip exactly.
        out[prefix + "distances"] = [
            [float(d) for d in r.distances] for r in results
        ]
        if reranker is original:
            out["n_exact"] = [int(r.n_exact) for r in results]
    searcher.reranker = original
    return out


def run_stream() -> dict:
    searcher, data, extra, queries = build_scenario()
    stream = {}
    searcher.fit(data)
    stream["fit"] = checkpoint(searcher, queries)
    searcher.insert(extra)
    stream["insert"] = checkpoint(searcher, queries)
    searcher.delete(np.asarray(DELETE_IDS, dtype=np.int64))
    stream["delete"] = checkpoint(searcher, queries)
    searcher.compact()
    stream["compact"] = checkpoint(searcher, queries)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gate.npz"
        save_searcher(searcher, path)
        reloaded = load_searcher(path)
    stream["reload"] = checkpoint(reloaded, queries)
    return stream


def main() -> None:
    doc = {
        "scenario": {
            "n": N,
            "dim": DIM,
            "n_clusters": N_CLUSTERS,
            "n_queries": N_QUERIES,
            "k": K,
            "nprobe": NPROBE,
            "data_seed": DATA_SEED,
            "config_seed": CONFIG_SEED,
            "searcher_seed": SEARCHER_SEED,
            "n_insert": N_INSERT,
            "delete_ids": DELETE_IDS,
        },
        "stream": run_stream(),
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
