"""Tests for the public API surface and the exception hierarchy."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
    ReproError,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [NotFittedError, DimensionMismatchError, InvalidParameterError, EmptyDatasetError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_base_class_catches_library_errors(self):
        with pytest.raises(ReproError):
            repro.RaBitQ().dataset  # not fitted

    def test_library_errors_do_not_mask_unrelated_exceptions(self):
        # A malformed query raises NumPy's own conversion error, not a
        # ReproError -- the library does not swallow unrelated failures.
        with pytest.raises((TypeError, ValueError)):
            repro.RaBitQ(repro.RaBitQConfig(seed=None)).fit(
                np.zeros((5, 4))
            ).estimate_distances("not-a-vector")


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_one_index_class_and_one_archive_surface(self):
        import repro.index
        import repro.io

        assert set(repro.io.__all__) == {
            "save_rabitq",
            "load_rabitq",
            "save_searcher",
            "load_searcher",
            "default_journal_path",
            "MutationJournal",
            "read_journal",
            "replay_records",
        }
        for module in (repro, repro.index, repro.io):
            assert not [n for n in dir(module) if "sharded" in n.lower()]

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.core
        import repro.datasets
        import repro.experiments
        import repro.index
        import repro.io
        import repro.metrics
        import repro.serving
        import repro.substrates

        for module in (
            repro.core,
            repro.baselines,
            repro.index,
            repro.io,
            repro.datasets,
            repro.metrics,
            repro.experiments,
            repro.serving,
            repro.substrates,
        ):
            assert module.__doc__, f"{module.__name__} is missing a docstring"

    def test_core_public_items_have_docstrings(self):
        import repro.core as core

        for name in core.__all__:
            item = getattr(core, name)
            assert item.__doc__, f"repro.core.{name} is missing a docstring"

    def test_index_public_items_have_docstrings(self):
        import repro.index as index

        for name in index.__all__:
            item = getattr(index, name)
            assert item.__doc__, f"repro.index.{name} is missing a docstring"

    def test_hnsw_is_a_baseline_not_an_index(self):
        import repro.baselines

        assert "HNSWIndex" in repro.baselines.__all__
        with pytest.raises(ImportError):
            from repro.index import HNSWIndex  # noqa: F401
        with pytest.raises(ImportError):
            import repro.index.hnsw  # noqa: F401


class TestEndToEndViaPublicApi:
    def test_save_load_roundtrip_via_top_level(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100, 32))
        quantizer = repro.RaBitQ(repro.RaBitQConfig(seed=0)).fit(data)
        path = tmp_path / "index.npz"
        repro.save_rabitq(quantizer, path)
        loaded = repro.load_rabitq(path)
        query = rng.standard_normal(32)
        np.testing.assert_allclose(
            loaded.estimate_distances(query, compute="float").distances,
            quantizer.estimate_distances(query, compute="float").distances,
        )

    def test_similarity_estimator_via_top_level(self):
        # Similarity estimation is RaBitQ(metric=...); the separate
        # estimator class is gone from the package.
        rng = np.random.default_rng(1)
        data = rng.standard_normal((80, 24)) + 1.0
        estimator = repro.RaBitQ(repro.RaBitQConfig(seed=0), metric="cosine")
        estimate = estimator.fit(data).estimate_distances(
            rng.standard_normal(24) + 1.0
        )
        assert isinstance(estimate, repro.DistanceEstimate)
        assert len(estimate) == 80
        assert estimator.metric == "cosine"
        with pytest.raises(ImportError):
            from repro import SimilarityEstimator  # noqa: F401
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.similarity")
