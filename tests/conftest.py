"""Shared fixtures for the test suite.

The fixtures provide small, deterministic datasets and fitted models so that
individual test modules stay fast; anything expensive (OPQ training, HNSW
construction) is session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.datasets.synthetic import make_clustered_dataset, make_gaussian_dataset

# Hypothesis profiles: "default" governs a local/tier-1 `pytest` run; "ci"
# is selected with `--hypothesis-profile=ci` by the CI property-test job.
# Both disable the per-example deadline (searcher-building examples have
# noisy timings, especially on shared CI runners).
#
# Tier-1 is a function of the checkout: the default profile is derandomized
# (examples derive from the test, not from a clock-seeded draw) and keeps no
# example database, so two runs draw identical examples and a find cannot
# persist in the git-ignored ``.hypothesis/examples`` as a red verify.
# Inline ``@settings(max_examples=..., deadline=None)`` inherits both from
# the registered profile.  Past counter-examples are pinned with
# ``@example``.  Exploration happens under the ci profile, which stays
# random, triples the example budget for suites that don't pin
# max_examples inline (the lifecycle suite) and prints reproduction blobs,
# so a find there becomes an issue with a blob to pin.
hypothesis_settings.register_profile(
    "default",
    deadline=None,
    max_examples=10,
    derandomize=True,
    database=None,
)
hypothesis_settings.register_profile(
    "ci",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide deterministic generator for ad-hoc sampling in tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_data() -> np.ndarray:
    """300 x 32 Gaussian data matrix."""
    return np.random.default_rng(0).standard_normal((300, 32))


@pytest.fixture(scope="session")
def small_queries() -> np.ndarray:
    """20 x 32 Gaussian query matrix."""
    return np.random.default_rng(1).standard_normal((20, 32))


@pytest.fixture(scope="session")
def medium_dataset():
    """A clustered dataset of 1200 x 64 with 20 queries."""
    return make_clustered_dataset(1200, 20, 64, rng=7, name="clustered-64")


@pytest.fixture(scope="session")
def gaussian_dataset():
    """An isotropic Gaussian dataset of 800 x 48 with 15 queries."""
    return make_gaussian_dataset(800, 15, 48, rng=11, name="gaussian-48")


@pytest.fixture(scope="session")
def fitted_rabitq(small_data) -> RaBitQ:
    """A RaBitQ quantizer fitted on ``small_data`` with a fixed seed."""
    return RaBitQ(RaBitQConfig(seed=3)).fit(small_data)


@pytest.fixture(scope="session")
def fitted_rabitq_medium(medium_dataset) -> RaBitQ:
    """A RaBitQ quantizer fitted on the medium clustered dataset."""
    return RaBitQ(RaBitQConfig(seed=5)).fit(medium_dataset.data)
