#!/usr/bin/env python
"""Regenerate the KMeans bit-identity fixture (``kmeans_gate.json``).

The IVF centroids, and so every code, archive and answer built on them,
are a pure function of KMeans output, so a change that only makes KMeans
faster must not move a bit of it.  The fixture pins, per case, sha256
digests of the centroid bytes and of the assignments (as ``int64``), the
inertia's bits (``float.hex``) and ``n_iter``.  It was written by commit
``d4c2aba`` (per-cluster boolean-mask update step, E-step through
``pairwise_squared_distances``); ``tests/test_kmeans.py`` recomputes every
case on the current build and compares.  Regenerate only for an
intentional, documented change of KMeans output::

    PYTHONPATH=src python tests/data/gen_kmeans_gate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import repro.substrates.kmeans as km  # noqa: E402
from repro.index.ivf import IVFIndex  # noqa: E402

OUT = Path(__file__).resolve().parent / "kmeans_gate.json"

#: The commit whose KMeans wrote the fixture.
WRITER_COMMIT = "d4c2aba"


def mixture(n: int, dim: int, seed: int) -> np.ndarray:
    """``n`` rows of a 16-component Gaussian mixture in ``dim`` dimensions."""
    rng = np.random.default_rng(1000 + seed)
    centres = 4.0 * rng.standard_normal((16, dim))
    return centres[rng.integers(16, size=n)] + rng.standard_normal((n, dim))


@contextlib.contextmanager
def forced_chunks(rows: int, n_clusters: int):
    """Stream the E-step in GEMM chunks of ``rows`` rows at any size."""
    saved = km._ASSIGN_FULL_ENTRIES, km._ASSIGN_CHUNK_ENTRIES
    km._ASSIGN_FULL_ENTRIES, km._ASSIGN_CHUNK_ENTRIES = 0, rows * n_clusters
    try:
        yield
    finally:
        km._ASSIGN_FULL_ENTRIES, km._ASSIGN_CHUNK_ENTRIES = saved


def _fit(data: np.ndarray, n_clusters: int, seed: int):
    result = km.kmeans_fit(data, n_clusters, rng=seed)
    return result.centroids, result.assignments, result.inertia, result.n_iter


def _chunked(data: np.ndarray, n_clusters: int, seed: int):
    with forced_chunks(37, n_clusters):
        return _fit(data, n_clusters, seed)


def _ivf(data: np.ndarray, sample: int | None):
    index = IVFIndex(30, rng=5).fit(data, kmeans_sample_size=sample)
    return index.centroids, index.assignments, None, None


def _duplicates() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.permutation(np.repeat(rng.standard_normal((60, 6)), 5, axis=0))


#: Four distinct points, ten copies each: k-means++ runs out of positive
#: weight after four centroids, picks the rest uniformly among copies of
#: chosen points, and those clusters are empty and re-seeded.
RESEED_DATA = np.repeat(np.random.default_rng(3).standard_normal((4, 3)), 10, axis=0)

#: name -> zero-argument callable returning
#: ``(centroids, assignments, inertia or None, n_iter or None)``.
CASES = {
    **{
        f"mixture_{n}x{dim}_k{k}_seed{seed}": (
            lambda n=n, dim=dim, k=k, seed=seed: _fit(mixture(n, dim, seed), k, seed)
        )
        for n, dim, k in ((300, 8, 7), (1000, 32, 20), (2000, 128, 45))
        for seed in (0, 1)
    },
    "gaussian_300x1_k6": lambda: _fit(
        np.random.default_rng(2).standard_normal((300, 1)), 6, 0
    ),
    "fortran_order_400x16_k10": lambda: _fit(
        np.asfortranarray(mixture(400, 16, 2)), 10, 2
    ),
    "duplicates_300x6_k12": lambda: _fit(_duplicates(), 12, 0),
    "all_equal_30x4_k3": lambda: _fit(np.full((30, 4), 2.5), 3, 0),
    "reseed_40x3_k7": lambda: _fit(RESEED_DATA, 7, 0),
    "one_cluster_50x3": lambda: _fit(mixture(50, 3, 3), 1, 0),
    "k_equals_n_12x3": lambda: _fit(mixture(12, 3, 4), 12, 0),
    "chunked_500x16_k9": lambda: _chunked(mixture(500, 16, 5), 9, 1),
    "ivf_3000x32": lambda: _ivf(mixture(3000, 32, 6), None),
    "ivf_3000x32_sample1000": lambda: _ivf(mixture(3000, 32, 6), 1000),
}


def digest(centroids, assignments, inertia, n_iter) -> dict:
    """The pinned fields of one KMeans outcome."""
    return {
        "centroids_sha256": hashlib.sha256(
            np.ascontiguousarray(centroids, dtype=np.float64).tobytes()
        ).hexdigest(),
        "assignments_sha256": hashlib.sha256(
            np.asarray(assignments, dtype=np.int64).tobytes()
        ).hexdigest(),
        "inertia": None if inertia is None else float(inertia).hex(),
        "n_iter": n_iter,
    }


def main() -> None:
    doc = {
        "writer_commit": WRITER_COMMIT,
        "cases": {name: digest(*case()) for name, case in CASES.items()},
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
