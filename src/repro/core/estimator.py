"""The unbiased inner-product estimator and its error bound (Sec. 3.2).

Given a data vector's quantization code and pre-computed alignment
``<o_bar, o>``, the estimator of the inner product between the unit data
vector ``o`` and the unit query ``q`` is::

    est(<o, q>) = <o_bar, q> / <o_bar, o>

It is unbiased, and with probability at least ``1 - 2 exp(-c0 eps0^2)`` its
error is at most ``sqrt((1 - <o_bar,o>^2) / <o_bar,o>^2) * eps0 / sqrt(D-1)``
(Theorem 3.2).  The squared distance between the raw vectors then follows
from the normalization identity (Eq. 2).

Multi-bit (``B > 1``) codes need one extra error term: their code error
``sqrt(1 - <o_bar,o>^2)`` shrinks towards zero as ``B`` grows, but the
randomized rounding of the *query* to ``B_q`` bits keeps contributing an
error of standard deviation at most ``Δ/2`` to ``<o_bar, q̄>`` (the
per-coordinate rounding errors are independent, zero-mean and bounded by
the step ``Δ``, and ``o_bar`` is a unit vector).  For binary codes the
Theorem 3.2 term dominates and empirically absorbs it — and the ``B = 1``
arithmetic is a bit-identity contract — so the query-rounding term
(``query_rounding = eps0 * Δ/2``, combined in quadrature by
:func:`combined_halfwidth`) is applied to multi-bit codes only.

Both query paths — :class:`repro.core.quantizer.RaBitQ` and the IVF
searcher, under every metric — estimate packed codes through one function,
:func:`estimate_codes` (the integer-dot kernel, the affine undo,
:func:`fused_estimate`), on constants from :func:`build_code_consts`;
:func:`estimate_distances` is the textbook form they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitops import binary_dot_uint_batch
from repro.core.metric import resolve_metric
from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class DistanceEstimate:
    """Estimated squared distances together with their confidence bounds.

    Attributes
    ----------
    distances:
        Unbiased estimates of the squared Euclidean distances between the
        raw query and each raw data vector.
    lower_bounds:
        Lower ends of the per-vector confidence intervals; used by the
        error-bound-based re-ranking rule of Section 4.
    upper_bounds:
        Upper ends of the per-vector confidence intervals.
    inner_products:
        The underlying estimates of ``<o, q>`` for the unit vectors.
    """

    distances: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    inner_products: np.ndarray

    @property
    def scores(self) -> np.ndarray:
        """Alias of :attr:`distances` for similarity metrics.

        Under ``metric="ip"`` / ``metric="cosine"`` the ``distances`` field
        carries similarity scores (larger is better) and the bounds bracket
        those scores; this alias keeps metric-generic call sites readable.
        """
        return self.distances

    def __len__(self) -> int:
        return int(self.distances.shape[0])


def estimate_inner_product(
    quantized_dot: np.ndarray, alignment: np.ndarray
) -> np.ndarray:
    """Estimate ``<o, q>`` as ``<o_bar, q> / <o_bar, o>`` element-wise.

    Parameters
    ----------
    quantized_dot:
        Values of ``<o_bar, q>`` per data vector.
    alignment:
        Pre-computed values of ``<o_bar, o>`` per data vector.  Entries that
        are zero (possible only for degenerate all-zero inputs) yield an
        estimate of 0.
    """
    dots = np.asarray(quantized_dot, dtype=np.float64)
    align = np.asarray(alignment, dtype=np.float64)
    if dots.shape != align.shape:
        raise InvalidParameterError(
            "quantized_dot and alignment must have the same shape"
        )
    safe = np.where(align != 0.0, align, 1.0)
    est = dots / safe
    return np.where(align != 0.0, est, 0.0)


def confidence_interval_halfwidth(
    alignment: np.ndarray, code_length: int, epsilon0: float
) -> np.ndarray:
    """Vectorized half-width of the estimator's confidence interval (Eq. 16)."""
    align = np.asarray(alignment, dtype=np.float64)
    if code_length < 2:
        raise InvalidParameterError("code_length must be at least 2")
    if epsilon0 < 0.0:
        raise InvalidParameterError("epsilon0 must be non-negative")
    safe = np.where(align != 0.0, align, 1.0)
    ratio = np.clip(1.0 - align**2, 0.0, None) / (safe**2)
    halfwidth = np.sqrt(ratio) * epsilon0 / np.sqrt(code_length - 1)
    return np.where(align != 0.0, halfwidth, np.inf)


def combined_halfwidth(
    halfwidth: np.ndarray, safe_alignment: np.ndarray, query_rounding
) -> np.ndarray:
    """Quadrature sum of the code half-width and the query-rounding term.

    ``query_rounding`` is ``eps0 * Δ/2`` — the confidence multiple of the
    randomized-rounding error's standard-deviation bound on ``<o_bar, q̄>``
    (scalar for one query, an ``(n_queries, 1)`` column for a batch).  The
    estimator divides the quantized dot by the alignment, so the term is
    scaled by ``1 / |alignment|`` before the quadrature combine; degenerate
    codes (alignment 0) keep their infinite half-width.

    The reference :func:`estimate_distances` and the fused kernel both
    combine through this one function, so multi-bit bounds stay
    bit-identical across them.
    """
    extra = query_rounding / np.abs(safe_alignment)
    extra *= extra
    # ``a + b`` and ``b + a`` round alike, so the sum lands in ``extra``.
    extra += halfwidth * halfwidth
    return np.sqrt(extra, out=extra)


def inner_product_to_squared_distance(
    inner_products: np.ndarray,
    data_to_centroid: np.ndarray,
    query_to_centroid: float,
) -> np.ndarray:
    """Convert unit-vector inner products into raw squared distances (Eq. 2).

    ``||o_r - q_r||^2 = ||o_r - c||^2 + ||q_r - c||^2
    - 2 ||o_r - c|| ||q_r - c|| <o, q>``.
    """
    ips = np.asarray(inner_products, dtype=np.float64)
    data_norms = np.asarray(data_to_centroid, dtype=np.float64)
    if ips.shape != data_norms.shape:
        raise InvalidParameterError(
            "inner_products and data_to_centroid must have the same shape"
        )
    query_norm = float(query_to_centroid)
    if query_norm < 0.0:
        raise InvalidParameterError("query_to_centroid must be non-negative")
    # Squares are spelled as multiplications, not ``**``: Python's float pow
    # goes through libm and can differ from an IEEE multiply by 1 ULP, which
    # would break the bit-identity between this path and fused_estimate.
    return (
        data_norms * data_norms
        + query_norm * query_norm
        - 2.0 * data_norms * query_norm * ips
    )


def estimate_distances(
    quantized_dot: np.ndarray,
    alignment: np.ndarray,
    data_to_centroid: np.ndarray,
    query_to_centroid: float,
    code_length: int,
    epsilon0: float,
    *,
    query_rounding: float | None = None,
) -> DistanceEstimate:
    """Full estimation pipeline: inner products, distances and bounds.

    This is the textbook form of Algorithm 2 (lines 3-5): every input is a
    per-data-vector array and the output carries the distance estimates plus
    the confidence intervals needed by the re-ranking rule.

    ``query_rounding`` (``eps0 * Δ/2``, multi-bit codes only) widens the
    intervals by the query-rounding error via :func:`combined_halfwidth`;
    ``None`` (binary codes) keeps the historical Eq. 16 half-width.

    Notes
    -----
    Because the inner-product error is symmetric around the true value, the
    *lower* bound of the squared distance corresponds to the *upper* bound
    of the inner product (larger inner product means closer vectors).
    """
    ips = estimate_inner_product(quantized_dot, alignment)
    halfwidth = confidence_interval_halfwidth(alignment, code_length, epsilon0)
    if query_rounding is not None:
        align = np.asarray(alignment, dtype=np.float64)
        safe = np.where(align != 0.0, align, 1.0)
        halfwidth = combined_halfwidth(halfwidth, safe, query_rounding)

    distances = inner_product_to_squared_distance(
        ips, data_to_centroid, query_to_centroid
    )
    # Inner products of unit vectors lie in [-1, 1]; capping the interval
    # endpoints at that range (while never crossing the point estimate, which
    # may drift slightly outside it due to query quantization) keeps the
    # bounds finite even for degenerate vectors whose alignment is zero
    # (infinite half-width).
    ip_upper = np.minimum(ips + halfwidth, np.maximum(1.0, ips))
    ip_lower = np.maximum(ips - halfwidth, np.minimum(-1.0, ips))
    lower_bounds = inner_product_to_squared_distance(
        ip_upper, data_to_centroid, query_to_centroid
    )
    upper_bounds = inner_product_to_squared_distance(
        ip_lower, data_to_centroid, query_to_centroid
    )
    np.maximum(distances, 0.0, out=distances)
    np.maximum(lower_bounds, 0.0, out=lower_bounds)
    np.maximum(upper_bounds, 0.0, out=upper_bounds)
    return DistanceEstimate(
        distances=distances,
        lower_bounds=lower_bounds,
        upper_bounds=upper_bounds,
        inner_products=ips,
    )


# --------------------------------------------------------------------- #
# Fused estimation kernels (code-arena hot path)
# --------------------------------------------------------------------- #
#
# The arena-backed search path stores, for every encoded vector, a column of
# pre-computed estimator constants so that query-time estimation reduces to
# one integer inner-product pass, the affine undo and one estimate epilogue.
# Both of the latter form each shared subexpression once and update their
# code-sized buffers in place, keeping the textbook grouping.  Each
# constant is pre-computed with the *same elementwise operation* the
# reference functions above would apply at query time, so fused results are
# bit-identical to :func:`estimate_distances` (row by row, for a batch).

#: Row indices of the fused per-code constants matrix (``N_CONSTS`` rows,
#: one column per code).  Stored constants-major so each constant's slice
#: over a contiguous code range is itself contiguous.
CONST_NORM = 0  #: ``||o_r - c||``
CONST_NORM_SQ = 1  #: ``norm * norm`` (the estimator's ``dn * dn``)
CONST_TWO_NORM = 2  #: ``2.0 * norm`` (the estimator's ``2.0 * dn``)
CONST_ALIGN = 3  #: ``<o_bar, o>``
CONST_SAFE_ALIGN = 4  #: ``align`` with zeros replaced by 1 (division guard)
CONST_HALFWIDTH = 5  #: confidence-interval half-width for the config epsilon0
CONST_POPCOUNT = 6  #: ``popcount(x_b)`` as float64 (Eq. 20 affine term)
N_CONSTS = 7

#: Similarity metrics (``ip`` / ``cosine``) extend the matrix with the
#: centroid-decomposition terms of :mod:`repro.core.metric`.
CONST_DOT_C = 7  #: ``<o_r, c>`` — raw data vector dot normalization centroid
CONST_RAW_NORM = 8  #: ``||o_r||`` — raw data-vector norm (cosine denominator)
N_CONSTS_SIM = 9

# Multi-bit (B > 1) codes append one more row *after* the metric's rows:
# the per-code rescale factor ``1 / ||v||`` of the level vector
# ``v = 2u - (2^B - 1)``.  It is always the last row of the matrix
# (``consts[-1]``), for any metric; B = 1 matrices never carry it, keeping
# the historical layout bit-identical.  ``CONST_POPCOUNT`` holds the level
# sum ``sum_j u_j``, which is the popcount at B = 1.


def n_consts_for(metric, bits: int = 1) -> int:
    """Fused-constants rows for ``metric`` (name or instance) at width ``bits``."""
    return resolve_metric(metric).n_consts + (1 if bits > 1 else 0)


def build_code_consts(
    alignments: np.ndarray,
    norms: np.ndarray,
    code_popcounts: np.ndarray,
    code_length: int,
    epsilon0: float,
    *,
    metric="l2",
    dot_centroid: np.ndarray | None = None,
    raw_norms: np.ndarray | None = None,
    rescales: np.ndarray | None = None,
) -> np.ndarray:
    """Fused per-code estimator constants, shape ``(n_consts, n_codes)``.

    Every row is computed with the exact operation the reference estimator
    applies at query time (e.g. ``norm * norm``, not ``norm ** 2``), so
    consuming these constants in :func:`fused_estimate` reproduces
    :func:`estimate_distances` bit for bit.

    For ``metric="l2"`` (the default) the matrix has the historical
    ``N_CONSTS`` rows and is bit-identical to the metric-oblivious layout.
    Similarity metrics append the centroid-decomposition rows
    (``CONST_DOT_C`` = ``<o_r, c>``, ``CONST_RAW_NORM`` = ``||o_r||``),
    which must then be supplied via ``dot_centroid`` / ``raw_norms``.
    Multi-bit codes pass their level sums as ``code_popcounts`` and their
    ``rescales``, which become the trailing row.
    """
    resolved = resolve_metric(metric)
    align = np.asarray(alignments, dtype=np.float64).reshape(-1)
    data_norms = np.asarray(norms, dtype=np.float64).reshape(-1)
    pops = np.asarray(code_popcounts).reshape(-1)
    if align.shape != data_norms.shape or align.shape != pops.shape:
        raise InvalidParameterError(
            "alignments, norms and code_popcounts must have the same length"
        )
    n_rows = resolved.n_consts + (0 if rescales is None else 1)
    consts = np.empty((n_rows, align.shape[0]), dtype=np.float64)
    consts[CONST_NORM] = data_norms
    consts[CONST_NORM_SQ] = data_norms * data_norms
    consts[CONST_TWO_NORM] = 2.0 * data_norms
    consts[CONST_ALIGN] = align
    consts[CONST_SAFE_ALIGN] = np.where(align != 0.0, align, 1.0)
    consts[CONST_HALFWIDTH] = confidence_interval_halfwidth(
        align, code_length, epsilon0
    )
    consts[CONST_POPCOUNT] = pops.astype(np.float64)
    if resolved.n_consts > N_CONSTS:
        if dot_centroid is None or raw_norms is None:
            raise InvalidParameterError(
                f"metric {resolved.name!r} requires dot_centroid and "
                f"raw_norms per code"
            )
        dot_c = np.asarray(dot_centroid, dtype=np.float64).reshape(-1)
        raw = np.asarray(raw_norms, dtype=np.float64).reshape(-1)
        if dot_c.shape != align.shape or raw.shape != align.shape:
            raise InvalidParameterError(
                "dot_centroid and raw_norms must have one entry per code"
            )
        consts[CONST_DOT_C] = dot_c
        consts[CONST_RAW_NORM] = raw
    if rescales is not None:
        consts[-1] = rescales
    return consts


def undo_query_quantization(
    integer_dot: np.ndarray,
    consts: np.ndarray,
    delta,
    lower,
    sum_codes,
    code_length: int,
    bits: int,
) -> np.ndarray:
    """Affine undo of the scalar query quantization (Eq. 19-20).

    ``integer_dot`` is the exact ``<u, q_u>`` of the codes whose constants
    are ``consts`` (:func:`build_code_consts`, one column per code); it
    reads their level sums ``Σu`` and, for ``bits > 1``, their rescales.
    ``delta`` (Δ), ``lower`` (``v_l``) and ``sum_codes`` (``Σq_u``) are
    per-query ``(n_queries, 1)`` columns against a 2-D ``integer_dot``, or
    scalars or per-code arrays (a query's value repeated over its codes)
    against a 1-D one — the same values elementwise.

    At ``bits = 1`` the code is the 0/1 vector ``x_b`` and ``x_bar =
    (2 x_b - 1)/√D``, so ``<x_bar, q_bar> = 2Δ/√D <x_b, q_u> + 2 v_l/√D
    Σx_b - Δ/√D Σq_u - √D v_l``.  A ``bits``-wide code is the level vector
    ``u`` with ``x_bar = r v``, ``v = 2u - (2^B - 1)`` and ``r = 1/||v||``,
    so ``<x_bar, q_bar> = r (2Δ <u, q_u> + 2 v_l Σu - (2^B - 1)(Δ Σq_u +
    v_l D))``.  Each width keeps its own literal arithmetic.

    The GEMM, popcount and 4-bit LUT kernels produce the identical exact
    integer, so whichever computed it, the output here is the same.  The
    per-query coefficients are formed once and the code-sized buffer is
    updated in place, in the literal formula's order, so the result has the
    bits of that formula evaluated as written.
    """
    # A float64 copy of the exact integers, so the caller's array is never
    # written; ``x * c`` rounds as ``c * x`` does.
    out = np.array(integer_dot, dtype=np.float64)
    sums = consts[CONST_POPCOUNT]
    if bits == 1:
        sqrt_d = np.sqrt(float(code_length))
        out *= 2.0 * delta / sqrt_d
        out += 2.0 * lower / sqrt_d * sums
        out -= delta / sqrt_d * sum_codes
        out -= sqrt_d * lower
        return out
    levels = float((1 << bits) - 1)
    out *= 2.0 * delta
    out += 2.0 * lower * sums
    out -= levels * (delta * sum_codes + lower * float(code_length))
    out *= consts[-1]
    return out


def fused_estimate(
    quantized_dot: np.ndarray,
    consts: np.ndarray,
    query_norms,
    *,
    metric="l2",
    query_offset=None,
    query_raw_norm=None,
    query_rounding=None,
) -> DistanceEstimate:
    """Metric estimates + bounds from fused per-code constants.

    Parameters
    ----------
    quantized_dot:
        ``<o_bar, q>`` per code — ``(n,)`` for one query (or a flat
        multi-cluster candidate set) or ``(n_queries, n)`` for a batch.
    consts:
        Output of :func:`build_code_consts` for exactly those ``n`` codes
        (columns aligned with ``quantized_dot``'s last axis), built for the
        same ``metric``.
    query_norms:
        ``||q_r - c||`` — a scalar, an ``(n,)`` per-candidate array (flat
        layout spanning clusters with different centroids), or an
        ``(n_queries, 1)`` column for the batch form.
    metric:
        ``"l2"`` (default, the historical bit-identical path), ``"ip"`` or
        ``"cosine"``.
    query_offset:
        Similarity metrics only: ``<q_r, c> - ||c||^2`` per probed cluster
        — a scalar, an ``(n,)`` per-candidate array or an
        ``(n_queries, 1)`` column, broadcast like ``query_norms``.
    query_raw_norm:
        Cosine only: the raw query norm ``||q_r||`` (scalar or
        ``(n_queries, 1)`` column).
    query_rounding:
        Multi-bit codes only: ``eps0 * Δ/2`` per query (scalar or
        ``(n_queries, 1)`` column), combined into the half-width exactly
        as the reference estimators do; ``None`` for binary codes.

    Returns
    -------
    DistanceEstimate
        For L2: bit-identical to :func:`estimate_distances` on the same
        inputs (row by row for the batch form) — every step
        is the same elementwise arithmetic, with the query-independent
        factors read from ``consts`` instead of recomputed.  For ``ip`` /
        ``cosine`` the ``distances`` field carries similarity *scores*
        (larger is better) derived through the centroid decomposition of
        :mod:`repro.core.metric`, with ``lower_bounds`` / ``upper_bounds``
        bracketing them; cosine scores and bounds are clipped to
        ``[-1, 1]`` and degenerate (zero-norm) pairs score 0, as the
        exact scores of :data:`repro.core.metric.COSINE` do.

    Notes
    -----
    The three outputs share their terms: the inner products, the clamped
    interval ends and, for L2, ``dn^2 + qn^2`` and ``2 dn qn`` (for
    similarities the scale and the offset) are computed once, and each
    output is updated in place.  Every operation keeps the textbook
    grouping and order, and IEEE ``+ - * / sqrt`` round correctly, so the
    bits equal the textbook form's in every broadcast form above.
    """
    resolved = resolve_metric(metric)
    dots = np.asarray(quantized_dot, dtype=np.float64)
    # Multi-bit codes append one rescale row after the metric's rows (see
    # the layout note above); it is consumed upstream, so this kernel only
    # requires the metric's rows to be present.
    if consts.ndim != 2 or consts.shape[0] not in (
        resolved.n_consts,
        resolved.n_consts + 1,
    ):
        raise InvalidParameterError(
            f"consts must have shape ({resolved.n_consts}, n_codes) for "
            f"metric {resolved.name!r} (plus one rescale row for multi-bit "
            f"codes)"
        )
    if dots.shape[-1] != consts.shape[1]:
        raise InvalidParameterError(
            "quantized_dot and consts disagree on the number of codes"
        )
    # Each output starts as a fresh array (never a view of ``consts`` or of
    # an input) before it is updated in place.
    ips = dots / consts[CONST_SAFE_ALIGN]
    align = consts[CONST_ALIGN]
    if not align.all():
        np.copyto(ips, 0.0, where=align == 0.0)
    halfwidth = consts[CONST_HALFWIDTH]
    if query_rounding is not None:
        halfwidth = combined_halfwidth(
            halfwidth, consts[CONST_SAFE_ALIGN], query_rounding
        )
    qn = query_norms
    # min(ips + hw, max(1, ips)) and max(ips - hw, min(-1, ips)).
    ip_upper = ips + halfwidth
    cap = np.maximum(ips, 1.0)
    np.minimum(ip_upper, cap, out=ip_upper)
    ip_lower = ips - halfwidth
    np.minimum(ips, -1.0, out=cap)
    np.maximum(ip_lower, cap, out=ip_lower)

    if resolved.name == "l2":
        # dn^2 + qn^2 - 2 dn qn <o, q>, grouped (dn^2 + qn^2) - ((2 dn qn) ip).
        base = consts[CONST_NORM_SQ] + qn * qn
        scale = consts[CONST_TWO_NORM] * qn
        outputs = []
        for ip in (ips, ip_upper, ip_lower):
            value = scale * ip
            np.subtract(base, value, out=value)
            np.maximum(value, 0.0, out=value)
            outputs.append(value)
        distances, lower_bounds, upper_bounds = outputs
        return DistanceEstimate(
            distances=distances,
            lower_bounds=lower_bounds,
            upper_bounds=upper_bounds,
            inner_products=ips,
        )

    if query_offset is None:
        raise InvalidParameterError(
            f"metric {resolved.name!r} requires query_offset "
            f"(<q_r, c> - ||c||^2 per probed cluster)"
        )
    # Raw inner product via the centroid decomposition: the larger unit
    # inner product gives the larger raw inner product (scale >= 0).
    scale = consts[CONST_NORM] * qn
    offset = consts[CONST_DOT_C] + query_offset
    outputs = []
    for ip in (ips, ip_lower, ip_upper):
        value = scale * ip
        value += offset
        outputs.append(value)
    if resolved.name == "cosine":
        if query_raw_norm is None:
            raise InvalidParameterError(
                "metric 'cosine' requires query_raw_norm (the raw ||q_r||)"
            )
        denom = consts[CONST_RAW_NORM] * query_raw_norm
        degenerate = ~(denom > 0.0)
        safe = np.where(degenerate, 1.0, denom)
        for value in outputs:
            value /= safe
            np.copyto(value, 0.0, where=degenerate)
            np.clip(value, -1.0, 1.0, out=value)
    values, lower_bounds, upper_bounds = outputs
    return DistanceEstimate(
        distances=values,
        lower_bounds=lower_bounds,
        upper_bounds=upper_bounds,
        inner_products=ips,
    )


def estimate_codes(
    codes: np.ndarray,
    consts: np.ndarray,
    query_values: np.ndarray,
    terms: dict[str, np.ndarray],
    *,
    code_length: int,
    bits: int,
    metric="l2",
    segments: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> DistanceEstimate:
    """Estimates and bounds of packed ``codes`` for quantized query rows.

    ``query_values`` are quantized query rows, ``consts`` the codes' fused
    constants (:func:`build_code_consts`) and ``terms`` the rows' query
    terms, shaped to broadcast against the output: ``delta`` (Δ),
    ``lower`` (``v_l``) and ``sums`` (``Σq_u``) for the undo,
    ``query_norms`` (``||q - c||``) and, when present, ``query_rounding``
    (``eps0 Δ/2``, ``B > 1``), ``query_offset`` and ``query_raw_norm``
    for :func:`fused_estimate`.  Without ``segments`` every row meets every
    code (``(n_rows, 1)`` terms, ``(n_rows, n_codes)`` output); with them,
    row ``i`` meets only the next ``segments[i]`` codes (terms repeated per
    code, ``(n_codes,)`` output).  One call of the integer-dot kernel
    computes the exact ``<u, q_u>`` (popcount or unpack + BLAS into
    ``scratch``, whichever the work size favours; the integers are the
    same), then one affine undo of the query quantization (Eq. 19-20) at
    width ``bits`` and one :func:`fused_estimate`.
    """
    integer_dot = binary_dot_uint_batch(
        codes,
        query_values=query_values,
        bits=bits,
        code_length=code_length,
        segments=segments,
        scratch=scratch,
    )
    quantized_dot = undo_query_quantization(
        integer_dot,
        consts,
        terms["delta"],
        terms["lower"],
        terms["sums"],
        code_length,
        bits,
    )
    return fused_estimate(
        quantized_dot,
        consts,
        terms["query_norms"],
        metric=metric,
        query_offset=terms.get("query_offset"),
        query_raw_norm=terms.get("query_raw_norm"),
        query_rounding=terms.get("query_rounding"),
    )


__all__ = [
    "DistanceEstimate",
    "CONST_NORM",
    "CONST_NORM_SQ",
    "CONST_TWO_NORM",
    "CONST_ALIGN",
    "CONST_SAFE_ALIGN",
    "CONST_HALFWIDTH",
    "CONST_POPCOUNT",
    "N_CONSTS",
    "CONST_DOT_C",
    "CONST_RAW_NORM",
    "N_CONSTS_SIM",
    "n_consts_for",
    "build_code_consts",
    "undo_query_quantization",
    "fused_estimate",
    "estimate_codes",
    "estimate_inner_product",
    "confidence_interval_halfwidth",
    "inner_product_to_squared_distance",
    "estimate_distances",
]
