"""Tests for the experiment harness (repro.experiments).

Each experiment is run at a very small scale and its *qualitative* findings —
the ones the paper reports — are asserted:

* the estimator is unbiased (slope ≈ 1) while the naive/OPQ estimators are not,
* recall increases with epsilon_0 and saturates near 1.9-3,
* the error converges in B_q by ~4,
* the concentration statistics match the closed-form expectation,
* RaBitQ's distance estimates are more accurate than PQ/OPQ at comparable
  code lengths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_gaussian_dataset
from repro.experiments.ablation_codebook import learn_sign_rotation, run_codebook_ablation
from repro.experiments.ann_search import run_ann_search_experiment
from repro.experiments.bq_sweep import run_bq_sweep
from repro.experiments.concentration import (
    normalized_orthogonal_samples,
    run_concentration_experiment,
)
from repro.experiments.distance_estimation import run_distance_estimation_experiment
from repro.experiments.epsilon_sweep import run_epsilon_sweep
from repro.experiments.indexing_time import run_indexing_time_experiment
from repro.experiments.report import format_table, rows_from_dataclasses
from repro.experiments.unbiasedness import run_unbiasedness_experiment
from repro.exceptions import InvalidParameterError
from repro.substrates.linalg import is_orthogonal, normalize_rows


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("sift", n_data=600, n_queries=8, ground_truth_k=10)


@pytest.fixture(scope="module")
def tiny_gaussian():
    return make_gaussian_dataset(800, 10, 64, rng=0, name="gaussian-tiny")


class TestConcentrationExperiment:
    def test_matches_theory(self):
        result = run_concentration_experiment(dim=64, n_samples=150, rng=0)
        assert abs(result.alignment_mean - result.alignment_expected) < 0.02
        assert abs(result.orthogonal_mean) < 0.05
        # Spread of <o_bar, e1> is O(1/sqrt(D)).
        assert result.orthogonal_std < 3.0 / np.sqrt(64)

    def test_normalized_samples_have_unit_spread_scale(self):
        result = run_concentration_experiment(dim=64, n_samples=150, rng=0)
        normalized = normalized_orthogonal_samples(result)
        # One coordinate of a uniform unit vector in D-1 dims has variance
        # 1 / (D - 1).
        assert np.var(normalized) == pytest.approx(1.0 / 63.0, rel=0.5)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            run_concentration_experiment(dim=2)
        with pytest.raises(InvalidParameterError):
            run_concentration_experiment(dim=16, n_samples=1)


class TestDistanceEstimationExperiment:
    def test_rabitq_beats_pq_at_comparable_code_length(self, tiny_dataset):
        results = run_distance_estimation_experiment(
            tiny_dataset,
            methods=("rabitq", "pq"),
            n_queries=4,
            code_length_factors=(1.0,),
            seed=0,
        )
        by_method = {r.method: r for r in results}
        assert by_method["rabitq"].avg_relative_error < by_method["pq"].avg_relative_error
        # The max-error comparison is noisy at this tiny scale; only require
        # that RaBitQ is not dramatically less robust than PQ.
        assert (
            by_method["rabitq"].max_relative_error
            < 2.0 * by_method["pq"].max_relative_error
        )

    def test_longer_codes_reduce_rabitq_error(self, tiny_dataset):
        results = run_distance_estimation_experiment(
            tiny_dataset,
            methods=("rabitq",),
            n_queries=3,
            code_length_factors=(1.0, 2.0),
            seed=0,
        )
        assert results[1].avg_relative_error < results[0].avg_relative_error

    def test_unknown_method_rejected(self, tiny_dataset):
        with pytest.raises(InvalidParameterError):
            run_distance_estimation_experiment(
                tiny_dataset, methods=("simhash",), n_queries=1
            )


class TestEpsilonSweep:
    def test_recall_increases_and_saturates(self, tiny_gaussian):
        results = run_epsilon_sweep(
            tiny_gaussian,
            epsilon_values=(0.0, 1.0, 1.9, 3.0),
            k=10,
            n_queries=10,
            seed=0,
        )
        recalls = [r.recall for r in results]
        assert recalls[-1] >= recalls[0]
        assert recalls[-1] >= 0.95
        # More exact computations are spent as epsilon grows.
        exacts = [r.avg_exact_computations for r in results]
        assert exacts[-1] >= exacts[0]

    def test_low_epsilon_recall_and_spend_pinned(self, tiny_gaussian):
        # Where the bounds often fail (small epsilon_0) the re-ranker's
        # answers depend on exactly which candidates it computes, so any
        # change to that rule shows here.  Values of the full-sort scan.
        results = run_epsilon_sweep(
            tiny_gaussian,
            epsilon_values=(0.0, 0.5, 1.0, 1.9),
            k=10,
            n_queries=10,
            seed=0,
        )
        assert [(r.recall, r.avg_exact_computations) for r in results] == [
            pytest.approx((0.79, 64.0)),
            pytest.approx((0.79, 65.5)),
            pytest.approx((0.85, 86.9)),
            pytest.approx((0.95, 174.3)),
        ]


class TestBqSweep:
    def test_error_converges_by_four_bits(self, tiny_gaussian):
        results = run_bq_sweep(
            tiny_gaussian, bq_values=(1, 2, 4, 8), n_queries=4, seed=0
        )
        errors = {r.query_bits: r.avg_relative_error for r in results}
        assert errors[1] > errors[4]
        # Going from 4 to 8 bits changes the error only marginally.
        assert abs(errors[4] - errors[8]) < 0.25 * errors[4] + 1e-3


class TestUnbiasedness:
    def test_rabitq_unbiased_naive_biased(self, tiny_dataset):
        result = run_unbiasedness_experiment(
            tiny_dataset, n_queries=6, include_opq=False, seed=0
        )
        rabitq = result.by_method("rabitq")
        naive = result.by_method("rabitq-naive")
        assert rabitq.slope == pytest.approx(1.0, abs=0.05)
        assert abs(rabitq.intercept) < 0.05
        # The naive estimator is visibly biased (slope deviates from 1,
        # close to the expected alignment of ~0.8) and is less robust.
        assert abs(naive.slope - 1.0) > 0.05
        assert naive.max_relative_error > rabitq.max_relative_error

    def test_unknown_method_lookup(self, tiny_gaussian):
        result = run_unbiasedness_experiment(
            tiny_gaussian, n_queries=2, include_opq=False, seed=0
        )
        with pytest.raises(InvalidParameterError):
            result.by_method("lsh")


class TestIndexingTime:
    def test_all_methods_report_positive_times(self, tiny_dataset):
        results = run_indexing_time_experiment(
            tiny_dataset, methods=("rabitq", "pq"), seed=0
        )
        assert {r.method for r in results} == {"rabitq", "pq"}
        assert all(r.seconds > 0 for r in results)

    def test_unknown_method(self, tiny_dataset):
        with pytest.raises(InvalidParameterError):
            run_indexing_time_experiment(tiny_dataset, methods=("faiss",))


class TestCodebookAblation:
    def test_learned_rotation_is_orthogonal(self, tiny_gaussian):
        data = tiny_gaussian.data[:200]
        units = normalize_rows(data - data.mean(axis=0))
        rotation = learn_sign_rotation(units, n_iterations=3)
        assert is_orthogonal(rotation, atol=1e-6)

    def test_returns_both_variants(self, tiny_dataset):
        results = run_codebook_ablation(tiny_dataset, n_queries=2, seed=0)
        assert {r.codebook for r in results} == {"random", "learned"}
        assert all(np.isfinite(r.avg_relative_error) for r in results)


class TestAnnSearchExperiment:
    def test_rabitq_curve_reaches_high_recall(self, tiny_dataset):
        results = run_ann_search_experiment(
            tiny_dataset,
            k=10,
            nprobe_values=(2, 8),
            n_clusters=16,
            include_hnsw=False,
            include_opq=False,
            seed=0,
        )
        rabitq_results = [r for r in results if r.method == "IVF-RaBitQ"]
        assert max(r.recall for r in rabitq_results) >= 0.9
        assert all(r.qps > 0 for r in rabitq_results)
        assert all(r.distance_ratio >= 1.0 - 1e-9 for r in rabitq_results)

    def test_no_rerank_curve_included_when_requested(self, tiny_dataset):
        results = run_ann_search_experiment(
            tiny_dataset,
            k=10,
            nprobe_values=(4,),
            n_clusters=16,
            include_hnsw=False,
            include_opq=False,
            include_rabitq_no_rerank=True,
            seed=0,
        )
        methods = {r.method for r in results}
        assert "IVF-RaBitQ (no rerank)" in methods

    def test_baseline_curves_are_pinned(self, tiny_dataset):
        # Fig. 4's IVF-OPQ and HNSW rows, recorded before the baselines
        # left the searcher: (method, parameter) ->
        # (recall, distance_ratio, avg_exact_per_query).
        results = run_ann_search_experiment(
            tiny_dataset,
            k=10,
            nprobe_values=(2, 8),
            opq_rerank_counts=(50,),
            ef_search_values=(20, 80),
            n_clusters=16,
            seed=0,
        )
        got = {
            (r.method, r.parameter): (
                r.recall,
                r.distance_ratio,
                r.avg_exact_per_query,
            )
            for r in results
            if r.method != "IVF-RaBitQ"
        }
        assert got == {
            ("IVF-OPQ (rerank=50)", 2.0): (1.0, 1.0, 50.0),
            ("IVF-OPQ (rerank=50)", 8.0): (1.0, 1.0, 50.0),
            ("HNSW", 20.0): (1.0, 1.0, 0.0),
            ("HNSW", 80.0): (1.0, 1.0, 0.0),
        }


class TestReport:
    def test_format_table_basic(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "0.5000" in text
        assert text.count("\n") >= 3

    def test_rows_from_dataclasses(self, tiny_gaussian):
        results = run_bq_sweep(tiny_gaussian, bq_values=(4,), n_queries=1, seed=0)
        rows = rows_from_dataclasses(results)
        assert rows[0]["query_bits"] == 4

    def test_empty_table_rejected(self):
        with pytest.raises(InvalidParameterError):
            format_table([])

    def test_rows_from_invalid_type(self):
        with pytest.raises(InvalidParameterError):
            rows_from_dataclasses([42])
