"""Tests for inner-product / cosine estimation: ``RaBitQ(metric="ip"|"cosine")``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    CONST_ALIGN,
    CONST_DOT_C,
    CONST_NORM,
    CONST_POPCOUNT,
    CONST_RAW_NORM,
    N_CONSTS,
    build_code_consts,
)
from repro.core.quantizer import RaBitQ
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index.rerank import NoReranker
from repro.index.searcher import IVFQuantizedSearcher

FIELDS = ("distances", "lower_bounds", "upper_bounds", "inner_products")


@pytest.fixture(scope="module")
def similarity_setup():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((400, 96)) + 0.5  # non-zero mean, realistic MIPS
    query = rng.standard_normal(96) + 0.5
    # Pad the codes to 256 bits so the estimation error is small enough for
    # the accuracy assertions to be meaningful rather than noise-dominated.
    config = RaBitQConfig(seed=0, code_length=256)
    ip = RaBitQ(config, metric="ip").fit(data)
    cosine = RaBitQ(config, metric="cosine").fit(data)
    return data, query, ip, cosine


class TestConstruction:
    def test_requires_fitted_quantizer(self):
        with pytest.raises(NotFittedError):
            RaBitQ(metric="ip").estimate_distances(np.ones(8))

    def test_requires_raw_terms_before_estimation(self, similarity_setup):
        data, query, ip, _ = similarity_setup
        consts = ip.arena.consts
        np.testing.assert_array_equal(consts[CONST_DOT_C], data @ ip.centroid)
        np.testing.assert_array_equal(
            consts[CONST_RAW_NORM], np.sqrt(np.einsum("ij,ij->i", data, data))
        )
        assert RaBitQ(RaBitQConfig(seed=1)).fit(data).arena.n_consts == N_CONSTS
        stripped = RaBitQ(RaBitQConfig(seed=1), metric="ip").fit(data)
        stripped.arena.consts = stripped.arena.consts[:N_CONSTS]
        with pytest.raises(InvalidParameterError, match="metric 'ip'"):
            stripped.estimate_distances(query)

    def test_raw_terms_shape_validation(self, similarity_setup):
        data, query, _, _ = similarity_setup
        quantizer = RaBitQ(RaBitQConfig(seed=1), metric="ip").fit(data)
        consts = quantizer.arena.consts
        rows = (
            consts[CONST_ALIGN],
            consts[CONST_NORM],
            consts[CONST_POPCOUNT],
            quantizer.code_length,
            1.9,
        )
        for bad in (
            {"dot_centroid": consts[CONST_DOT_C][:10]},
            {"raw_norms": np.zeros(data.shape[0] + 1)},
        ):
            terms = {
                "dot_centroid": consts[CONST_DOT_C],
                "raw_norms": consts[CONST_RAW_NORM],
                **bad,
            }
            with pytest.raises(InvalidParameterError, match="one entry per code"):
                build_code_consts(*rows, metric="ip", **terms)

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidParameterError, match="hamming"):
            RaBitQ(metric="hamming")


class TestInnerProductEstimation:
    def test_accuracy(self, similarity_setup):
        data, query, ip, _ = similarity_setup
        estimate = ip.estimate_distances(query)
        true = data @ query
        scale = np.abs(true).mean()
        errors = np.abs(estimate.scores - true) / scale
        # The additive error of the raw inner product scales with
        # ||o_r - c|| * ||q_r - c||, so the error relative to the typical
        # inner-product magnitude is sizeable at D=96 (padded to 256 bits);
        # the assertion checks it stays within the theoretically expected
        # range rather than being tight.
        assert errors.mean() < 0.25

    def test_unbiased_over_rotations(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((60, 48)) + 0.3
        query = rng.standard_normal(48) + 0.3
        true = data @ query
        acc = np.zeros(60)
        repeats = 25
        for seed in range(repeats):
            config = RaBitQConfig(seed=seed, code_length=128)
            est = RaBitQ(config, metric="ip").fit(data)
            acc += est.estimate_distances(query, compute="float").scores
        mean_estimate = acc / repeats
        residual = np.abs(mean_estimate - true) / np.abs(true).mean()
        # Averaging over 25 independent rotations shrinks the error by 5x
        # relative to a single estimate, which is what unbiasedness predicts.
        assert residual.mean() < 0.08

    def test_bounds_bracket_values(self, similarity_setup):
        _, query, ip, _ = similarity_setup
        estimate = ip.estimate_distances(query)
        assert (estimate.lower_bounds <= estimate.scores + 1e-9).all()
        assert (estimate.scores <= estimate.upper_bounds + 1e-9).all()

    def test_bounds_cover_true_values_mostly(self, similarity_setup):
        data, query, ip, _ = similarity_setup
        estimate = ip.estimate_distances(query)
        true = data @ query
        covered = (true >= estimate.lower_bounds) & (true <= estimate.upper_bounds)
        assert covered.mean() > 0.85

    def test_prepared_query_matches_raw(self, similarity_setup):
        # The query terms ride on the prepared query, so preparing once
        # and estimating later is the same computation.
        _, query, ip, cosine = similarity_setup
        for quantizer in (ip, cosine):
            prepared = quantizer.prepare_query(query)
            got = quantizer.estimate_distances(prepared)
            want = quantizer.estimate_distances(query)
            for name in FIELDS:
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name)
                )


class TestCosineEstimation:
    def test_values_in_valid_range(self, similarity_setup):
        _, query, _, cosine = similarity_setup
        estimate = cosine.estimate_distances(query)
        assert (estimate.scores >= -1.0).all() and (estimate.scores <= 1.0).all()

    def test_accuracy(self, similarity_setup):
        data, query, _, cosine = similarity_setup
        estimate = cosine.estimate_distances(query)
        true = (data @ query) / (
            np.linalg.norm(data, axis=1) * np.linalg.norm(query)
        )
        assert np.mean(np.abs(estimate.scores - true)) < 0.1

    def test_ranking_quality(self, similarity_setup):
        # The estimated cosines should rank the truly most-similar vectors
        # near the top.
        data, query, _, cosine = similarity_setup
        estimate = cosine.estimate_distances(query)
        true = (data @ query) / (
            np.linalg.norm(data, axis=1) * np.linalg.norm(query)
        )
        top_true = set(np.argsort(-true)[:10].tolist())
        top_est = set(np.argsort(-estimate.scores)[:20].tolist())
        assert len(top_true & top_est) >= 7


class TestTopKInnerProduct:
    """MIPS top-k: an argsort of the flat scores, or an ``"ip"`` searcher,
    which validates and clips ``k``."""

    @pytest.fixture(scope="class")
    def mips_searcher(self, similarity_setup):
        data = similarity_setup[0]
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=1,
            rabitq_config=RaBitQConfig(seed=0, code_length=256),
            rng=0,
            metric="ip",
        ).fit(data)
        searcher.reranker = NoReranker()
        return searcher

    def test_returns_high_inner_product_items(self, similarity_setup):
        data, query, ip, _ = similarity_setup
        scores = ip.estimate_distances(query).scores
        ids = np.argsort(-scores, kind="stable")[:10]
        values = scores[ids]
        true = data @ query
        top_true = set(np.argsort(-true)[:20].tolist())
        assert len(set(ids.tolist()) & top_true) >= 6
        assert (np.diff(values) <= 1e-9).all()

    def test_k_clipped(self, similarity_setup, mips_searcher):
        data, query, _, _ = similarity_setup
        result = mips_searcher.search(query, 10_000, nprobe=1)
        assert result.ids.shape[0] == data.shape[0]
        assert (np.diff(result.distances) <= 0).all()

    def test_invalid_k(self, similarity_setup, mips_searcher):
        _, query, _, _ = similarity_setup
        with pytest.raises(InvalidParameterError):
            mips_searcher.search(query, 0, nprobe=1)
