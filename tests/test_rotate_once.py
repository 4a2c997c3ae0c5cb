"""Rotate once: query preparation by ``(P^-1 q - P^-1 c) / ||q - c||``.

The searcher derives ``P^-1 C`` when it installs its rotation and prepares
each (query, probed cluster) pair by rotating the query once and
subtracting the cluster's rotated centroid.  By linearity this is the
paper's ``P^-1 ((q - c) / ||q - c||)`` up to rounding.  The contract under
test:

* **Accuracy** — the rotated unit rows agree with the per-residual formula
  within 1e-9, under QR and Hadamard rotations, with the code padded past
  the dimension, for a query sitting on a centroid and for a dataset
  translated by 1e4 (``||q|| >> ||q - c||``); the searcher answers with the
  same ids as a searcher preparing by the per-residual formula.
* **Zero residual** — a query on its centroid becomes the zero row, which
  quantizes to ``Δ = 1``, ``v_l = 0`` and codes 0.
* **One owner** — ``P^-1 C`` of an eager load and of an mmap load equals
  the fitted searcher's, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.query
from repro.core.config import RaBitQConfig
from repro.core.metric import resolve_metric
from repro.core.query import prepare_pairs, rotated_unit_residuals
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import load_searcher, save_searcher

N, DIM, N_CLUSTERS = 300, 40, 6
K, NPROBE = 5, 4
ROTATIONS = ("qr", "hadamard")


def _fitted(rotation: str, shift: float = 0.0):
    rng = np.random.default_rng(21)
    data = rng.standard_normal((N, DIM)) + shift
    queries = rng.standard_normal((8, DIM)) + shift
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(seed=4, rotation=rotation),
        rng=5,
    ).fit(data)
    # The last query sits exactly on a centroid.
    queries = np.vstack([queries, searcher.ivf.centroids[2]])
    return searcher, queries


def _per_residual(searcher, queries, query_rows, cluster_ids):
    """``P^-1 ((q - c) / ||q - c||)``, one padded row at a time."""
    rotation = searcher._shared_rotation
    residuals = queries[query_rows] - searcher.ivf.centroids[cluster_ids]
    norms = np.array([np.linalg.norm(row) for row in residuals])
    units = np.zeros((len(norms), rotation.dim))
    for i, (row, norm) in enumerate(zip(residuals, norms)):
        if norm != 0.0:
            units[i, :DIM] = row / norm
        units[i] = rotation.apply_inverse(units[i : i + 1])[0]
    return units, norms


def _prepare(searcher, queries, query_rows, cluster_ids):
    """The searcher's pair preparation of the given pairs."""
    return prepare_pairs(
        queries,
        query_rows,
        cluster_ids,
        rotation=searcher._shared_rotation,
        centroids=searcher.ivf.centroids,
        rotated_centroids=searcher._rotated_centroids,
        centroid_sq_norms=searcher.ivf.centroid_sq_norms,
        rounding_offsets=searcher._rounding_offsets,
        config=searcher.rabitq_config,
        metric=resolve_metric(searcher.metric),
    )


def _all_pairs(searcher, queries):
    n_clusters = searcher.ivf.centroids.shape[0]
    query_rows = np.repeat(np.arange(len(queries)), n_clusters)
    cluster_ids = np.tile(np.arange(n_clusters), len(queries))
    return query_rows, cluster_ids


@pytest.mark.parametrize("shift", [0.0, 1e4])
@pytest.mark.parametrize("rotation", ROTATIONS)
def test_rotated_rows_match_per_residual_formula(rotation, shift):
    searcher, queries = _fitted(rotation, shift)
    assert searcher._shared_rotation.dim > DIM  # the code is padded
    query_rows, cluster_ids = _all_pairs(searcher, queries)
    got, got_norms = rotated_unit_residuals(
        searcher._shared_rotation,
        queries,
        searcher.ivf.centroids,
        searcher._rotated_centroids,
        query_rows,
        cluster_ids,
    )
    want, want_norms = _per_residual(searcher, queries, query_rows, cluster_ids)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got_norms, want_norms, rtol=1e-12, atol=0)
    on_centroid = (query_rows == len(queries) - 1) & (cluster_ids == 2)
    assert got_norms[on_centroid] == 0.0
    assert not got[on_centroid].any()
    rows = np.linalg.norm(got[~on_centroid], axis=1)
    np.testing.assert_allclose(rows, 1.0, rtol=0, atol=1e-9)
    # Through prepare_pairs, the zero row quantizes to delta 1, lower 0,
    # codes 0.
    quantized, _, _ = _prepare(searcher, queries, query_rows, cluster_ids)
    (zero,) = np.flatnonzero(on_centroid)
    assert quantized.delta[zero] == 1.0 and quantized.lower[zero] == 0.0
    assert not quantized.codes[zero].any()


@pytest.mark.parametrize("shift", [0.0, 1e4])
@pytest.mark.parametrize("rotation", ROTATIONS)
def test_ids_match_a_per_residual_searcher(rotation, shift, monkeypatch):
    searcher, queries = _fitted(rotation, shift)
    reference, _ = _fitted(rotation, shift)

    def per_residual(rotation, batch, centroids, rotated, query_rows, cluster_ids):
        return _per_residual(reference, batch, query_rows, cluster_ids)

    # The reference prepares every pair by the per-residual formula.
    with monkeypatch.context() as patch:
        patch.setattr(repro.core.query, "rotated_unit_residuals", per_residual)
        want = [reference.search(q, K, nprobe=NPROBE) for q in queries]
    batch = searcher.search_batch(queries, K, nprobe=NPROBE)
    for i, query in enumerate(queries):
        got = searcher.search(query, K, nprobe=NPROBE)
        np.testing.assert_array_equal(got.ids, want[i].ids)
        np.testing.assert_array_equal(batch[i].ids, want[i].ids)


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_loads_derive_the_fitted_rotated_centroids(rotation, tmp_path):
    searcher, _ = _fitted(rotation)
    path = tmp_path / "index.rbq"
    save_searcher(searcher, path)
    for mmap in (False, True):
        loaded = load_searcher(path, mmap=mmap)
        assert loaded._rotated_centroids.dtype == np.float64
        np.testing.assert_array_equal(
            loaded._rotated_centroids, searcher._rotated_centroids
        )
