"""Tests for repro.io.persistence (save/load of fitted RaBitQ indexes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.exceptions import NotFittedError, PersistenceError
from repro.io import load_rabitq, save_rabitq
from repro.io.persistence import FORMAT_VERSION, MAGIC_RABITQ


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((250, 72))
    quantizer = RaBitQ(RaBitQConfig(seed=7, epsilon0=2.2, query_bits=5)).fit(data)
    path = tmp_path_factory.mktemp("indexes") / "rabitq_index.npz"
    save_rabitq(quantizer, path)
    return data, quantizer, path


class TestSave:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_rabitq(RaBitQ(), tmp_path / "index.npz")

    def test_file_created(self, saved_index):
        _, _, path = saved_index
        assert path.exists()
        assert path.stat().st_size > 0


class TestLoad:
    def test_roundtrip_preserves_dataset(self, saved_index):
        _, original, path = saved_index
        loaded = load_rabitq(path)
        np.testing.assert_array_equal(
            loaded.dataset.packed_codes, original.dataset.packed_codes
        )
        np.testing.assert_allclose(
            loaded.dataset.alignments, original.dataset.alignments
        )
        np.testing.assert_allclose(loaded.dataset.norms, original.dataset.norms)
        np.testing.assert_allclose(loaded.dataset.centroid, original.dataset.centroid)
        assert loaded.code_length == original.code_length
        assert loaded.dim == original.dim

    def test_roundtrip_preserves_config(self, saved_index):
        _, original, path = saved_index
        loaded = load_rabitq(path)
        assert loaded.config.epsilon0 == original.config.epsilon0
        assert loaded.config.query_bits == original.config.query_bits
        assert loaded.config.seed == original.config.seed

    def test_loaded_index_answers_queries_identically(self, saved_index):
        data, original, path = saved_index
        loaded = load_rabitq(path)
        query = np.random.default_rng(11).standard_normal(72)
        # Use the float path so randomized query rounding does not interfere
        # with the comparison.
        original_estimate = original.estimate_distances(query, compute="float")
        loaded_estimate = loaded.estimate_distances(query, compute="float")
        np.testing.assert_allclose(
            loaded_estimate.distances, original_estimate.distances, atol=1e-9
        )
        np.testing.assert_allclose(
            loaded_estimate.lower_bounds, original_estimate.lower_bounds, atol=1e-9
        )

    def test_loaded_index_accuracy(self, saved_index):
        data, _, path = saved_index
        loaded = load_rabitq(path)
        query = np.random.default_rng(12).standard_normal(72)
        estimate = loaded.estimate_distances(query)
        true = ((data - query) ** 2).sum(axis=1)
        rel = np.abs(estimate.distances - true) / true
        assert rel.mean() < 0.15

    def test_extension_is_optional(self, saved_index, tmp_path):
        data, original, _ = saved_index
        bare = tmp_path / "index_without_ext"
        save_rabitq(original, bare)  # numpy appends .npz
        loaded = load_rabitq(bare)
        assert loaded.code_length == original.code_length

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_rabitq(tmp_path / "does_not_exist.npz")

    def test_hadamard_rotation_roundtrip_bit_identical(self, tmp_path):
        # The structured rotation is stored as its sign diagonals, not a
        # dense matrix, so the reloaded transform applies the exact same
        # floating-point operations and estimates match bit for bit.
        rng = np.random.default_rng(31)
        data = rng.standard_normal((120, 100))
        quantizer = RaBitQ(RaBitQConfig(seed=3, rotation="hadamard")).fit(data)
        path = tmp_path / "hadamard.npz"
        save_rabitq(quantizer, path)
        loaded = load_rabitq(path)
        assert loaded.config.rotation == "hadamard"
        query = rng.standard_normal(100)
        original = quantizer.estimate_distances(query, compute="float")
        reloaded = loaded.estimate_distances(query, compute="float")
        np.testing.assert_array_equal(reloaded.distances, original.distances)

    def test_rng_stream_resumes_after_load(self, saved_index, tmp_path):
        # The rounding vector is part of the archive and querying draws
        # nothing, so the loaded quantizer's bitwise estimates match the
        # original's whatever either was asked before.
        data, _, _ = saved_index
        quantizer = RaBitQ(RaBitQConfig(seed=9)).fit(data)
        query = np.random.default_rng(21).standard_normal(72)
        quantizer.estimate_distances(query)
        path = tmp_path / "advanced.npz"
        save_rabitq(quantizer, path)
        loaded = load_rabitq(path)
        follow_up = np.random.default_rng(22).standard_normal(72)
        original = quantizer.estimate_distances(follow_up)
        reloaded = loaded.estimate_distances(follow_up)
        np.testing.assert_array_equal(reloaded.distances, original.distances)
        np.testing.assert_array_equal(reloaded.lower_bounds, original.lower_bounds)


def _clone_with(path, tmp_path, **overrides):
    """Copy the archive with entries replaced (``None`` removes one)."""
    with np.load(path) as archive:
        contents = {key: archive[key] for key in archive.files}
    for key, value in overrides.items():
        if value is None:
            contents.pop(key, None)
        else:
            contents[key] = value
    bad_path = tmp_path / "modified_index.npz"
    np.savez_compressed(bad_path, **contents)
    return bad_path


class TestCorruptArchives:
    """The versioned magic header rejects anything that is not a valid index."""

    def test_version_mismatch_rejected(self, saved_index, tmp_path):
        _, _, path = saved_index
        bad = _clone_with(
            path, tmp_path, format_version=np.int64(FORMAT_VERSION + 1)
        )
        with pytest.raises(PersistenceError, match="format version"):
            load_rabitq(bad)

    def test_missing_header_rejected(self, saved_index, tmp_path):
        _, _, path = saved_index
        bad = _clone_with(path, tmp_path, magic=None)
        with pytest.raises(PersistenceError, match="magic"):
            load_rabitq(bad)

    def test_wrong_magic_rejected(self, saved_index, tmp_path):
        _, _, path = saved_index
        bad = _clone_with(path, tmp_path, magic=np.str_("something/else"))
        with pytest.raises(PersistenceError, match="magic"):
            load_rabitq(bad)
        assert MAGIC_RABITQ != "something/else"

    def test_truncated_file_rejected(self, saved_index, tmp_path):
        _, _, path = saved_index
        raw = path.read_bytes()
        for fraction in (3, 2):
            truncated = tmp_path / f"truncated_{fraction}.npz"
            truncated.write_bytes(raw[: len(raw) // fraction])
            with pytest.raises(PersistenceError):
                load_rabitq(truncated)

    def test_not_a_zip_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(PersistenceError):
            load_rabitq(garbage)

    def test_malformed_rounding_offsets_rejected(self, saved_index, tmp_path):
        _, original, path = saved_index
        good = original._rounding_offsets
        assert good.shape == (original.code_length,)
        third = np.arange(good.size) == 3
        for bad_offsets in (
            None,  # entry missing
            good[:-1],
            good[None, :],
            np.where(third, np.nan, good),
            np.where(third, np.inf, good),
            np.where(third, 1.0, good),
            np.where(third, -1e-9, good),
        ):
            bad = _clone_with(path, tmp_path, rounding_offsets=bad_offsets)
            with pytest.raises(PersistenceError, match="rounding"):
                load_rabitq(bad)


class TestLegacyQuantizerArchives:
    """v2 / v3 archives (a generator state, no rounding vector) still load."""

    @pytest.mark.parametrize("bits, version", [(1, 2), (4, 3)])
    @pytest.mark.parametrize("seed", (5, None))
    def test_legacy_versions_derive_offsets_from_seed(
        self, tmp_path, bits, version, seed
    ):
        rng = np.random.default_rng(40)
        data, query = rng.standard_normal((90, 20)), rng.standard_normal(20)
        quantizer = RaBitQ(RaBitQConfig(seed=seed, bits=bits)).fit(data)
        path = tmp_path / "current.npz"
        save_rabitq(quantizer, path)
        with np.load(path) as archive:
            assert int(archive["format_version"]) == FORMAT_VERSION == 4
        legacy = _clone_with(
            path,
            tmp_path,
            format_version=np.int64(version),
            rounding_offsets=None,
            bits=None if version == 2 else np.int64(bits),
            query_rng_state=np.str_("never read"),
        )
        first, second = load_rabitq(legacy), load_rabitq(legacy)
        np.testing.assert_array_equal(
            first.estimate_distances(query).distances,
            second.estimate_distances(query).distances,
        )
        if seed is not None:
            # As a current build from the same seed derives it at fit.
            np.testing.assert_array_equal(
                first._rounding_offsets, quantizer._rounding_offsets
            )
            np.testing.assert_array_equal(
                first.estimate_distances(query).distances,
                quantizer.estimate_distances(query).distances,
            )
