"""Unit tests for the fused estimation kernels (code-arena hot path).

The fused kernels trade recomputation for pre-computed per-code constants;
the contract is *bit-identity* with the textbook
:func:`repro.core.estimator.estimate_distances` (row by row for a batch).
Every query path estimates through them, so ``RaBitQ`` under every metric
must equal a one-cluster ``IVFQuantizedSearcher``'s raw estimates bit for
bit (:class:`TestOneCentroidViews`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops, codebook
from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    CONST_ALIGN,
    CONST_DOT_C,
    CONST_HALFWIDTH,
    CONST_NORM,
    CONST_POPCOUNT,
    CONST_RAW_NORM,
    N_CONSTS,
    DistanceEstimate,
    build_code_consts,
    combined_halfwidth,
    confidence_interval_halfwidth,
    derive_code_consts,
    estimate_distances,
    fused_estimate,
    n_consts_for,
    n_stored_consts_for,
    stored_code_consts,
    undo_query_quantization,
)
from repro.core.quantizer import RaBitQ, encode_rows
from repro.exceptions import InvalidParameterError
from repro.index.searcher import IVFQuantizedSearcher


@pytest.fixture()
def random_codes():
    rng = np.random.default_rng(11)
    n, code_length = 200, 64
    alignments = rng.uniform(-1.0, 1.0, n)
    alignments[::17] = 0.0  # degenerate rows must survive the fused path
    norms = rng.uniform(0.0, 3.0, n)
    popcounts = rng.integers(0, code_length + 1, n).astype(np.int64)
    return alignments, norms, popcounts, code_length


class TestBuildCodeConsts:
    def test_shape_and_rows(self, random_codes):
        alignments, norms, popcounts, code_length = random_codes
        consts = build_code_consts(alignments, norms, popcounts, code_length, 1.9)
        assert consts.shape == (N_CONSTS, alignments.shape[0])
        np.testing.assert_array_equal(consts[CONST_NORM], norms)
        np.testing.assert_array_equal(consts[CONST_ALIGN], alignments)
        np.testing.assert_array_equal(
            consts[CONST_POPCOUNT], popcounts.astype(np.float64)
        )
        np.testing.assert_array_equal(
            consts[CONST_HALFWIDTH],
            confidence_interval_halfwidth(alignments, code_length, 1.9),
        )

    def test_length_mismatch_rejected(self, random_codes):
        alignments, norms, popcounts, code_length = random_codes
        with pytest.raises(InvalidParameterError):
            build_code_consts(alignments[:-1], norms, popcounts, code_length, 1.9)


@st.composite
def _stored_inputs(draw):
    """Packed codes (padding bits past the code length set at random) with
    their levels and stored constants: some alignments 0 (an infinite
    half-width), +-1 or one ULP past it (``1 - a^2 < 0``, clipped), some
    norms 0, one width, metric and epsilon0."""
    bits = draw(st.sampled_from([1, 2, 4, 8]))
    metric = draw(st.sampled_from(["l2", "ip", "cosine"]))
    epsilon0 = draw(st.sampled_from([0.0, 1.9, 3.0]))
    length = draw(st.sampled_from([2, 63, 64, 100, 128, 200]))
    n_codes = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(0, 1 << bits, (n_codes, length)).astype(np.uint8)
    codes = bitops.pack_level_planes(levels, bits)
    if length % 64:
        n_words = codes.shape[1] // bits
        last = np.arange(n_words - 1, codes.shape[1], n_words)
        garbage = rng.integers(0, 2**63, (n_codes, bits), dtype=np.uint64)
        codes[:, last] |= garbage << np.uint64(length % 64)
    align = rng.uniform(-1.0, 1.0, n_codes)
    align[rng.random(n_codes) < 0.2] = 0.0
    edges = [-1.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]
    align[rng.random(n_codes) < 0.1] = rng.choice(edges)
    norms = rng.uniform(0.0, 3.0, n_codes)
    norms[rng.random(n_codes) < 0.2] = 0.0
    terms = {"metric": metric}
    if metric != "l2":
        terms["dot_centroid"] = rng.normal(size=n_codes)
        terms["raw_norms"] = rng.uniform(0.0, 5.0, n_codes)
    if bits > 1:
        terms["rescales"] = rng.uniform(0.01, 0.2, n_codes)
    return bits, epsilon0, length, levels, codes, align, norms, terms


class TestDeriveCodeConsts:
    """The view derived from the stored rows and the packed codes is
    :func:`build_code_consts` of the same codes, bit for bit."""

    @given(inputs=_stored_inputs())
    @settings(max_examples=150, deadline=None)
    def test_equals_build_code_consts(self, inputs):
        bits, epsilon0, length, levels, codes, align, norms, terms = inputs
        want = build_code_consts(
            align, norms, levels.sum(axis=1), length, epsilon0, **terms
        )
        stored = stored_code_consts(align, norms, **terms)
        assert stored.shape[0] == n_stored_consts_for(terms["metric"], bits)
        assert want.shape[0] == n_consts_for(terms["metric"], bits)
        got = derive_code_consts(stored, codes, length, bits, epsilon0)
        assert got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
        # Gathered columns of a wider matrix: the same columns of the view.
        columns = np.random.default_rng(0).permutation(len(align))[: len(align) // 2]
        gathered = derive_code_consts(
            stored, codes[columns], length, bits, epsilon0, columns=columns
        )
        np.testing.assert_array_equal(_bits(gathered), _bits(want[:, columns]))

    def test_unknown_stored_layout_rejected(self):
        codes = np.zeros((3, 1), dtype=np.uint64)
        with pytest.raises(InvalidParameterError, match="3 stored constants"):
            derive_code_consts(np.zeros((3, 3)), codes, 64, 1, 1.9)


class TestFusedEstimate:
    def test_matches_reference_scalar_query_norm(self, random_codes):
        alignments, norms, popcounts, code_length = random_codes
        rng = np.random.default_rng(5)
        dots = rng.normal(size=alignments.shape[0])
        consts = build_code_consts(alignments, norms, popcounts, code_length, 1.9)
        got = fused_estimate(dots, consts, 1.37)
        want = estimate_distances(dots, alignments, norms, 1.37, code_length, 1.9)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.lower_bounds, want.lower_bounds)
        np.testing.assert_array_equal(got.upper_bounds, want.upper_bounds)
        np.testing.assert_array_equal(got.inner_products, want.inner_products)

    def test_matches_reference_per_candidate_query_norms(self, random_codes):
        # The flat multi-cluster layout uses one query norm per candidate;
        # slicing any constant-norm segment must equal the reference block.
        alignments, norms, popcounts, code_length = random_codes
        rng = np.random.default_rng(6)
        n = alignments.shape[0]
        dots = rng.normal(size=n)
        consts = build_code_consts(alignments, norms, popcounts, code_length, 1.9)
        qn = np.repeat(rng.uniform(0.5, 2.0, 4), n // 4)
        got = fused_estimate(dots, consts, qn)
        for seg in range(4):
            sl = slice(seg * (n // 4), (seg + 1) * (n // 4))
            want = estimate_distances(
                dots[sl],
                alignments[sl],
                norms[sl],
                float(qn[sl][0]),
                code_length,
                1.9,
            )
            np.testing.assert_array_equal(got.distances[sl], want.distances)
            np.testing.assert_array_equal(got.lower_bounds[sl], want.lower_bounds)

    def test_matches_reference_batch(self, random_codes):
        alignments, norms, popcounts, code_length = random_codes
        rng = np.random.default_rng(7)
        n_queries = 6
        dots = rng.normal(size=(n_queries, alignments.shape[0]))
        query_norms = rng.uniform(0.1, 2.0, n_queries)
        consts = build_code_consts(alignments, norms, popcounts, code_length, 1.9)
        got = fused_estimate(dots, consts, query_norms[:, None])
        for i in range(n_queries):
            want = estimate_distances(
                dots[i], alignments, norms, float(query_norms[i]), code_length, 1.9
            )
            np.testing.assert_array_equal(got.distances[i], want.distances)
            np.testing.assert_array_equal(got.lower_bounds[i], want.lower_bounds)
            np.testing.assert_array_equal(got.upper_bounds[i], want.upper_bounds)
            np.testing.assert_array_equal(
                got.inner_products[i], want.inner_products
            )

    def test_shape_validation(self, random_codes):
        alignments, norms, popcounts, code_length = random_codes
        consts = build_code_consts(alignments, norms, popcounts, code_length, 1.9)
        with pytest.raises(InvalidParameterError):
            fused_estimate(np.zeros(3), consts, 1.0)
        with pytest.raises(InvalidParameterError):
            fused_estimate(np.zeros(alignments.shape[0]), consts[:2], 1.0)


class TestUndoQueryQuantization:
    def test_matches_quantizer_affine_path(self):
        # Undoing the affine on the raw popcount integers must give
        # <x_bar, q_bar> as Eq. 19 defines it (decoded codes against the
        # dequantized query), and it is exactly what RaBitQ divides by the
        # alignments.
        rng = np.random.default_rng(3)
        data = rng.standard_normal((80, 32))
        quantizer = RaBitQ(RaBitQConfig(seed=0)).fit(data)
        prepared = quantizer.prepare_query(rng.standard_normal(32))
        arena = quantizer.arena
        quantized = prepared.quantized
        planes = bitops.bitplanes_from_uint_batch(
            quantized.codes, quantizer.config.query_bits
        )
        integer_dot = bitops.binary_dot_uint_batch(arena.codes, planes)[0]
        got = undo_query_quantization(
            integer_dot,
            arena.cluster_consts(0),
            float(quantized.delta[0]),
            float(quantized.lower[0]),
            float(quantized.sum_codes[0]),
            arena.code_length,
            1,
        )
        decoded = codebook.decode_codes(arena.codes, arena.code_length)
        np.testing.assert_allclose(
            got, decoded @ quantized.dequantize()[0], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(
            quantizer.estimate_distances(prepared).inner_products,
            got / arena.cluster_consts(0)[CONST_ALIGN],
        )


    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_multibit_undo_reads_level_sums_and_rescales(self, bits):
        # Above B = 1 the same undo reads the level sums and the trailing
        # rescale row of the constants: again Eq. 19's <x_bar, q_bar>.
        rng = np.random.default_rng(bits)
        data = rng.standard_normal((80, 32))
        quantizer = RaBitQ(RaBitQConfig(seed=0, bits=bits)).fit(data)
        prepared = quantizer.prepare_query(rng.standard_normal(32))
        quantized = prepared.quantized
        levels = quantizer.code_bits()
        integer_dot = levels.astype(np.int64) @ quantized.codes[0].astype(np.int64)
        consts = quantizer.arena.cluster_consts(0)
        *_, rescales = encode_rows(
            data, quantizer.centroid, quantizer.rotation, quantizer.code_length, bits
        )
        np.testing.assert_array_equal(consts[-1], rescales)
        got = undo_query_quantization(
            integer_dot,
            consts,
            float(quantized.delta[0]),
            float(quantized.lower[0]),
            float(quantized.sum_codes[0]),
            quantizer.code_length,
            bits,
        )
        decoded = (2.0 * levels - ((1 << bits) - 1)) * rescales[:, None]
        np.testing.assert_allclose(
            got, decoded @ quantized.dequantize()[0], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(
            quantizer.estimate_distances(prepared).inner_products,
            got / consts[CONST_ALIGN],
        )


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of ``values`` (so ``-0.0 != 0.0``)."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _literal_undo(integer_dot, consts, delta, lower, sum_codes, code_length, bits):
    """Eq. 19-20 written out for one query (scalar row terms)."""
    dot_f = np.asarray(integer_dot, dtype=np.float64)
    sums = consts[CONST_POPCOUNT]
    if bits == 1:
        sqrt_d = np.sqrt(float(code_length))
        return (
            2.0 * delta / sqrt_d * dot_f
            + 2.0 * lower / sqrt_d * sums
            - delta / sqrt_d * sum_codes
            - sqrt_d * lower
        )
    levels = float((1 << bits) - 1)
    return consts[-1] * (
        2.0 * delta * dot_f
        + 2.0 * lower * sums
        - levels * (delta * sum_codes + lower * float(code_length))
    )


def _textbook_estimate(dots, consts, qn, qround, metric, offset, raw_norm, length):
    """One query's estimate from :func:`estimate_distances` and, for
    similarities, the centroid decomposition of its interval, written out."""
    align, norms = consts[CONST_ALIGN], consts[CONST_NORM]
    ref = estimate_distances(
        dots, align, norms, qn, length, _EPS0, query_rounding=qround
    )
    if metric == "l2":
        return ref
    ips = ref.inner_products
    halfwidth = confidence_interval_halfwidth(align, length, _EPS0)
    if qround is not None:
        halfwidth = combined_halfwidth(
            halfwidth, np.where(align != 0.0, align, 1.0), qround
        )
    ip_upper = np.minimum(ips + halfwidth, np.maximum(1.0, ips))
    ip_lower = np.maximum(ips - halfwidth, np.minimum(-1.0, ips))
    scale = norms * qn
    shift = consts[CONST_DOT_C] + offset
    fields = [scale * ip + shift for ip in (ips, ip_lower, ip_upper)]
    if metric == "cosine":
        denom = consts[CONST_RAW_NORM] * raw_norm
        positive = denom > 0.0
        safe = np.where(positive, denom, 1.0)
        fields = [
            np.clip(np.where(positive, f / safe, 0.0), -1.0, 1.0) for f in fields
        ]
    return DistanceEstimate(*fields, inner_products=ips)


_EPS0 = 1.9


@st.composite
def _estimator_inputs(draw):
    """Codes (some with alignment 0 or +-1, some with zero norms) and
    queries (some with zero norms) for one width and metric."""
    bits = draw(st.sampled_from([1, 2, 4, 8]))
    metric = draw(st.sampled_from(["l2", "ip", "cosine"]))
    n_queries = draw(st.integers(1, 4))
    n_codes = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = 64
    align = rng.uniform(-1.0, 1.0, n_codes)
    align[rng.random(n_codes) < 0.2] = 0.0
    align[rng.random(n_codes) < 0.1] = 1.0
    norms = rng.uniform(0.0, 3.0, n_codes)
    norms[rng.random(n_codes) < 0.2] = 0.0
    raw_norms = rng.uniform(0.0, 5.0, n_codes)
    raw_norms[rng.random(n_codes) < 0.2] = 0.0
    levels = (1 << bits) - 1
    consts = build_code_consts(
        align,
        norms,
        rng.integers(0, levels * length + 1, n_codes),
        length,
        _EPS0,
        metric=metric,
        dot_centroid=rng.normal(size=n_codes) if metric != "l2" else None,
        raw_norms=raw_norms if metric != "l2" else None,
        rescales=rng.uniform(0.01, 0.2, n_codes) if bits > 1 else None,
    )
    query_norms = rng.uniform(0.0, 2.0, n_queries)
    query_norms[rng.random(n_queries) < 0.3] = 0.0
    delta = rng.uniform(1e-3, 0.05, n_queries)
    terms = {
        "delta": delta,
        "lower": rng.uniform(-0.5, 0.0, n_queries),
        "sums": rng.integers(0, 15 * length, n_queries).astype(np.float64),
        "query_norms": query_norms,
        "query_rounding": 0.5 * _EPS0 * delta if bits > 1 else None,
        "query_offset": rng.normal(size=n_queries),
        "query_raw_norm": np.where(
            rng.random(n_queries) < 0.3, 0.0, rng.uniform(0.1, 4.0, n_queries)
        ),
    }
    integer_dots = rng.integers(0, levels * 15 * length, (n_queries, n_codes))
    return bits, metric, length, consts, terms, integer_dots


class TestBroadcastFormsBitIdentity:
    """The undo and :func:`fused_estimate` in the three broadcast forms
    their callers use (a scalar row term, per-candidate flat arrays as in
    ``search()``, ``(g, 1)`` columns as in ``search_batch`` and ``RaBitQ``)
    equal the textbook estimator, query by query, bit for bit."""

    @given(inputs=_estimator_inputs())
    @settings(max_examples=60, deadline=None)
    def test_every_form_equals_the_textbook(self, inputs):
        bits, metric, length, consts, terms, integer_dots = inputs
        n_queries, n_codes = integer_dots.shape

        def undo(dots, delta, lower, sums):
            return undo_query_quantization(
                dots, consts, delta, lower, sums, length, bits
            )

        def estimate(dots, qn, qround, offset, raw_norm, table=consts):
            similarity = metric != "l2"
            return fused_estimate(
                dots,
                table,
                qn,
                metric=metric,
                query_rounding=qround,
                query_offset=offset if similarity else None,
                query_raw_norm=raw_norm if metric == "cosine" else None,
            )

        def row(name, i):
            term = terms[name]
            return None if term is None else float(term[i])

        def flat(name):
            term = terms[name]
            return None if term is None else np.repeat(term, n_codes)

        def column(name):
            term = terms[name]
            return None if term is None else term[:, None]

        # Column form: every query against every code, (g, 1) terms.
        column_dots = undo(
            integer_dots, column("delta"), column("lower"), column("sums")
        )
        column_est = estimate(
            column_dots,
            column("query_norms"),
            column("query_rounding"),
            column("query_offset"),
            column("query_raw_norm"),
        )
        # Flat form: the queries' runs one after another, terms repeated.
        tiled = np.tile(consts, (1, n_queries))
        flat_dots = undo_query_quantization(
            integer_dots.reshape(-1),
            tiled,
            flat("delta"),
            flat("lower"),
            flat("sums"),
            length,
            bits,
        )
        flat_est = estimate(
            flat_dots,
            flat("query_norms"),
            flat("query_rounding"),
            flat("query_offset"),
            flat("query_raw_norm"),
            table=tiled,
        )
        for i in range(n_queries):
            run = slice(i * n_codes, (i + 1) * n_codes)
            scalar_dots = undo(
                integer_dots[i], row("delta", i), row("lower", i), row("sums", i)
            )
            want_dots = _literal_undo(
                integer_dots[i],
                consts,
                row("delta", i),
                row("lower", i),
                row("sums", i),
                length,
                bits,
            )
            for got in (scalar_dots, column_dots[i], flat_dots[run]):
                np.testing.assert_array_equal(_bits(got), _bits(want_dots))
            want = _textbook_estimate(
                want_dots,
                consts,
                row("query_norms", i),
                row("query_rounding", i),
                metric,
                row("query_offset", i),
                row("query_raw_norm", i),
                length,
            )
            scalar_est = estimate(
                want_dots,
                row("query_norms", i),
                row("query_rounding", i),
                row("query_offset", i),
                row("query_raw_norm", i),
            )
            for got, index in (
                (scalar_est, ...),
                (column_est, i),
                (flat_est, run),
            ):
                for name in _FIELDS:
                    np.testing.assert_array_equal(
                        _bits(getattr(got, name)[index]),
                        _bits(getattr(want, name)),
                        err_msg=f"{name} ({metric}, B={bits})",
                    )


class TestGemvDotExactness:
    def test_unpacked_gemv_equals_popcount_kernel(self):
        # The arena kernel computes <x_b, q_u> as a float64 GEMV on the
        # unpacked 0/1 codes; it must reproduce the packed popcount kernel's
        # integers exactly (everything is integer-valued below 2^53).
        rng = np.random.default_rng(9)
        n, code_length, bq = 300, 128, 4
        bits = rng.integers(0, 2, size=(n, code_length)).astype(np.uint8)
        packed = bitops.pack_bits(bits)
        qvals = rng.integers(0, 1 << bq, size=code_length).astype(np.uint64)
        planes = bitops.bitplanes_from_uint_batch(qvals[None, :], bq)
        want = bitops.binary_dot_uint_batch(packed, planes)[0]
        got = np.rint(bits.astype(np.float64) @ qvals.astype(np.float64))
        np.testing.assert_array_equal(got.astype(np.int64), want)


class TestEncodeRows:
    def test_matches_rabitq_fit(self):
        # One encoder for every width; RaBitQ stores its levels packed.
        rng = np.random.default_rng(21)
        data = rng.standard_normal((60, 24))
        centroid = data.mean(axis=0)
        for bits in (1, 2, 4, 8):
            config = RaBitQConfig(seed=4, bits=bits)
            quantizer = RaBitQ(config).fit(data, centroid=centroid)
            arena = quantizer.arena
            levels, alignments, norms, rescales = encode_rows(
                data, centroid, quantizer.rotation, arena.code_length, bits
            )
            assert levels.dtype == np.uint8 and int(levels.max()) < 1 << bits
            np.testing.assert_array_equal(
                bitops.pack_level_planes(levels, bits), arena.codes
            )
            view = arena.cluster_consts(0)
            np.testing.assert_array_equal(levels.sum(axis=1), view[CONST_POPCOUNT])
            np.testing.assert_array_equal(alignments, view[CONST_ALIGN])
            np.testing.assert_array_equal(norms, view[CONST_NORM])
            if bits == 1:
                assert rescales is None and arena.n_consts == N_CONSTS
            else:
                np.testing.assert_array_equal(rescales, arena.consts[-1])


def _one_cluster(bits, rotation, metric="l2"):
    """A one-cluster searcher and a RaBitQ sharing its centroid, rotation
    and seed (hence its rounding vector), fitted on the same data."""
    rng = np.random.default_rng(100 + bits)
    data = rng.standard_normal((90, 100)) + 0.3
    queries = rng.standard_normal((3, 100)) + 0.3
    config = RaBitQConfig(seed=7, bits=bits, rotation=rotation)
    searcher = IVFQuantizedSearcher(
        "rabitq", n_clusters=1, rabitq_config=config, rng=3, metric=metric
    ).fit(data)
    quantizer = RaBitQ(config, metric=metric).fit(
        data,
        centroid=searcher.ivf.centroids[0],
        rotation=searcher._shared_rotation,
    )
    return data, queries, searcher, quantizer


_FIELDS = ("distances", "lower_bounds", "upper_bounds", "inner_products")


def _assert_same(got, want, order=slice(None)):
    """``got``'s fields, taken at ``order``, equal ``want``'s bit for bit."""
    for name in _FIELDS:
        np.testing.assert_array_equal(
            getattr(got, name)[..., order], getattr(want, name)
        )


def _assert_raw_pass_views(searcher, quantizer, queries):
    """Single, prepared, batch-row and ``subset=`` estimates of every query
    equal the one-cluster searcher's raw pass bit for bit."""
    batch = quantizer.estimate_distances_batch(queries)
    for i, query in enumerate(queries):
        # The raw pass lists the codes in arena order, as slots.
        slots, want, _ = searcher._estimate(query[None], np.array([[0]]))
        np.testing.assert_array_equal(np.sort(slots), np.arange(90))
        _assert_same(quantizer.estimate_distances(query), want, slots)
        prepared = quantizer.prepare_query(query)
        _assert_same(quantizer.estimate_distances(prepared), want, slots)
        row = DistanceEstimate(*(getattr(batch, name)[i] for name in _FIELDS))
        _assert_same(row, want, slots)
        subset = quantizer.estimate_distances(query, subset=slots)
        _assert_same(subset, want)


class TestOneCentroidViews:
    """RaBitQ, under every metric, is a one-centroid view of the
    searcher's fused pipeline: equal to its raw pass bit for bit."""

    @pytest.mark.parametrize("rotation", ["qr", "hadamard"])
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_rabitq_equals_raw_pass(self, bits, rotation):
        _, queries, searcher, quantizer = _one_cluster(bits, rotation)
        _assert_raw_pass_views(searcher, quantizer, queries)

    @pytest.mark.parametrize("rotation", ["qr", "hadamard"])
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    @pytest.mark.parametrize("metric", ["ip", "cosine"])
    def test_similarity_equals_raw_pass(self, metric, bits, rotation):
        _, queries, searcher, quantizer = _one_cluster(bits, rotation, metric)
        _assert_raw_pass_views(searcher, quantizer, queries)


class TestOneCodeStore:
    """RaBitQ stores its codes as the searcher does: a one-cluster
    searcher's arena and the quantizer's hold the same words and constants."""

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_arena_equals_one_cluster_searcher_arena(self, bits, metric):
        _, _, searcher, quantizer = _one_cluster(bits, "qr", metric)
        mine, theirs = quantizer.arena, searcher.arena
        assert mine.codes.dtype == theirs.codes.dtype == np.uint64
        np.testing.assert_array_equal(mine.codes, theirs.codes)
        np.testing.assert_array_equal(
            mine.consts.view(np.int64), theirs.consts.view(np.int64)
        )
        assert (mine.bits, mine.code_length) == (theirs.bits, theirs.code_length)
