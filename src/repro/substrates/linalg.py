"""Small linear-algebra helpers shared across the library.

These functions are deliberately simple NumPy routines; they centralize the
conventions (float64 accumulation, squared distances, safe normalization)
that the rest of the code relies on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidParameterError


def as_float_matrix(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Validate and return ``data`` as a 2-D ``float64`` array.

    A 1-D vector is promoted to a single-row matrix.  Anything that is not
    one- or two-dimensional raises :class:`DimensionMismatchError`.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be a 1-D vector or 2-D matrix, got ndim={arr.ndim}"
        )
    return arr


def as_int_ids(values, name: str = "ids") -> np.ndarray:
    """``values`` as a flat ``int64`` array; only integer values are ids.

    A float, string or bool id would otherwise be cast silently (``1.7``
    and ``"1"`` to ``1``), so anything but Python ints and signed or
    unsigned integer arrays raises :class:`InvalidParameterError`.
    """
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu" or (
        arr.dtype.kind == "u" and int(arr.max()) > np.iinfo(np.int64).max
    ):
        raise InvalidParameterError(
            f"{name} must be integers, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64)


def require_finite(array: np.ndarray, name: str) -> None:
    """Reject NaN / infinite entries with :class:`InvalidParameterError`."""
    if not np.isfinite(array).all():
        raise InvalidParameterError(f"{name} must be finite (found NaN or inf)")


def require_positive_int(value, name: str) -> None:
    """Reject anything but a positive integer (``bool`` included)."""
    if (
        not isinstance(value, (int, np.integer))
        or isinstance(value, bool)
        or value < 1
    ):
        raise InvalidParameterError(
            f"{name} must be a positive integer, got {value!r}"
        )


def squared_norms(matrix: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean norms of ``matrix``."""
    mat = as_float_matrix(matrix, "matrix")
    return np.einsum("ij,ij->i", mat, mat)


def normalize_rows(
    matrix: np.ndarray, *, return_norms: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Normalize each row of ``matrix`` to unit Euclidean norm.

    Zero rows are left as zeros (their norm is reported as 0).  When
    ``return_norms`` is true the original norms are returned alongside the
    normalized matrix.
    """
    mat = as_float_matrix(matrix, "matrix")
    norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
    safe = np.where(norms > 0.0, norms, 1.0)
    normalized = mat / safe[:, None]
    if return_norms:
        return normalized, norms
    return normalized


def pairwise_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.

    Returns a matrix of shape ``(len(a), len(b))``.  Uses the expansion
    ``|x - y|^2 = |x|^2 + |y|^2 - 2<x, y>`` and clips tiny negative values
    introduced by floating-point cancellation.
    """
    a_mat = as_float_matrix(a, "a")
    b_mat = as_float_matrix(b, "b")
    if a_mat.shape[1] != b_mat.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: a has D={a_mat.shape[1]}, b has D={b_mat.shape[1]}"
        )
    a_sq = np.einsum("ij,ij->i", a_mat, a_mat)[:, None]
    b_sq = np.einsum("ij,ij->i", b_mat, b_mat)[None, :]
    cross = a_mat @ b_mat.T
    dists = a_sq + b_sq - 2.0 * cross
    np.maximum(dists, 0.0, out=dists)
    return dists


def squared_distances_to_point(matrix: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of ``matrix`` to ``point``."""
    mat = as_float_matrix(matrix, "matrix")
    vec = np.asarray(point, dtype=np.float64).reshape(-1)
    if mat.shape[1] != vec.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: matrix has D={mat.shape[1]}, point has D={vec.shape[0]}"
        )
    diff = mat - vec[None, :]
    return np.einsum("ij,ij->i", diff, diff)


#: Cap on the float64 cells of the per-chunk difference tensor in
#: :func:`squared_distances_to_points` (about 256 MiB).
_DIST_BATCH_MAX_CELLS = 32_000_000


def squared_distances_to_points(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``matrix`` to every row of ``points``.

    Returns a matrix of shape ``(len(points), len(matrix))`` whose row ``i``
    is bit-identical to ``squared_distances_to_point(matrix, points[i])``
    (broadcasted difference + the same ``einsum`` reduction — unlike
    :func:`pairwise_squared_distances`, whose norm-expansion trick is faster
    but rounds differently).  The point axis is processed in chunks so the
    intermediate difference tensor stays bounded.
    """
    mat = as_float_matrix(matrix, "matrix")
    pts = as_float_matrix(points, "points")
    if pts.shape[0] and mat.shape[1] != pts.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: matrix has D={mat.shape[1]}, "
            f"points have D={pts.shape[1]}"
        )
    out = np.empty((pts.shape[0], mat.shape[0]), dtype=np.float64)
    chunk = max(1, _DIST_BATCH_MAX_CELLS // max(1, mat.shape[0] * mat.shape[1]))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        diff = mat[None, :, :] - block[:, None, :]
        out[start : start + chunk] = np.einsum("qij,qij->qi", diff, diff)
    return out


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries, in ascending value order.

    The classic argpartition + partial-sort idiom shared by the flat and IVF
    probing paths.  Unlike :func:`stable_topk_indices`, ties at the
    selection boundary are resolved by ``argpartition`` (deterministically
    for a given input, but not by index), which is the long-standing
    behavior of those call sites.  ``k`` must satisfy ``1 <= k <= len(values)``
    (callers clamp).
    """
    vals = np.asarray(values)
    part = np.argpartition(vals, kth=k - 1)[:k]
    order = np.argsort(vals[part], kind="stable")
    return part[order]


def stable_topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries, in stable ascending order.

    Returns exactly ``np.argsort(values, kind="stable")[:k]`` — ties are
    broken by ascending index — but avoids the full ``O(n log n)`` stable
    sort on the hot path: an ``O(n)`` ``argpartition`` narrows the
    selection, boundary ties are resolved explicitly in index order, and
    only the ``k`` survivors are sorted.
    """
    vals = np.asarray(values)
    if vals.ndim != 1:
        raise DimensionMismatchError("values must be one-dimensional")
    n = vals.shape[0]
    if k >= n:
        return np.argsort(vals, kind="stable")
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    part = np.argpartition(vals, kth=k - 1)[:k]
    boundary = vals[part].max()
    strict = np.flatnonzero(vals < boundary)
    ties = np.flatnonzero(vals == boundary)[: k - strict.shape[0]]
    chosen = np.concatenate([strict, ties])
    if chosen.shape[0] < k:
        # NaN boundary (argpartition sorts NaN last): fall back to the
        # reference stable sort, which handles NaN placement consistently.
        return np.argsort(vals, kind="stable")[:k]
    order = np.argsort(vals[chosen], kind="stable")
    return chosen[order]


def stable_positions(values: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Positions of ``values[subset]`` in the stable ascending order.

    Returns exactly ``np.argsort(np.argsort(values, kind="stable"))[subset]``
    but, when no picked value is tied, with one plain value sort and a
    binary search per entry instead of the index-carrying stable sort.  A
    tied pick (equal values, or NaN with NaN, which sorts last) is placed
    by index within its tie; then the stable sort itself is used.
    """
    vals = np.asarray(values)
    if vals.ndim != 1:
        raise DimensionMismatchError("values must be one-dimensional")
    sub = np.asarray(subset, dtype=np.intp)
    ordered = np.sort(vals)
    picked = vals[sub]
    position = np.searchsorted(ordered, picked, side="left")
    if (np.searchsorted(ordered, picked, side="right") - position > 1).any():
        rank = np.empty(vals.shape[0], dtype=np.intp)
        rank[np.argsort(vals, kind="stable")] = np.arange(vals.shape[0])
        return rank[sub]
    return position


def is_orthogonal(matrix: np.ndarray, *, atol: float = 1e-8) -> bool:
    """Return ``True`` if ``matrix`` is (numerically) orthogonal."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    identity = np.eye(mat.shape[0])
    return bool(np.allclose(mat @ mat.T, identity, atol=atol))


def gram_schmidt(matrix: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of ``matrix`` with modified Gram-Schmidt.

    Provided mainly for tests and for mirroring the constructive argument in
    the paper's Appendix B; production code uses QR factorization instead.
    """
    mat = as_float_matrix(matrix, "matrix").copy()
    rows, _ = mat.shape
    for i in range(rows):
        for j in range(i):
            mat[i] -= np.dot(mat[i], mat[j]) * mat[j]
        norm = np.linalg.norm(mat[i])
        if norm <= 1e-15:
            raise InvalidParameterError("matrix rows are linearly dependent; cannot orthonormalize")
        mat[i] /= norm
    return mat


__all__ = [
    "as_float_matrix",
    "require_finite",
    "squared_norms",
    "normalize_rows",
    "pairwise_squared_distances",
    "squared_distances_to_point",
    "squared_distances_to_points",
    "topk_indices",
    "stable_topk_indices",
    "is_orthogonal",
    "gram_schmidt",
]
