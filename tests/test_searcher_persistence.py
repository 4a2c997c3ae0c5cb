"""Round-trip tests for full-searcher persistence (save_searcher/load_searcher).

The guarantee under test is *bit-identity*: a searcher saved after any
prefix of its lifecycle (fit, queries answered, inserts, deletes) and then
reloaded answers ``search`` and ``search_batch`` element-wise identically —
ids, distances and cost counters — to the original searcher continuing
from the moment of the save.  This requires the archive to capture not just
the code matrices but also the tombstones, the external-id mapping and the
index's randomized-rounding vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.exceptions import (
    InvalidParameterError,
    NotFittedError,
    PersistenceError,
)
from repro.index.rerank import TopCandidateReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import load_searcher, save_searcher
from repro.io.persistence import SEARCHER_FORMAT_VERSION, _write_v6_archive
from test_legacy_archives import _read


def _build(data, *, rotation="qr", reranker=None, compact_threshold=0.25):
    return IVFQuantizedSearcher(
        "rabitq",
        n_clusters=10,
        rabitq_config=RaBitQConfig(seed=3, rotation=rotation),
        rng=7,
        reranker=reranker,
        compact_threshold=compact_threshold,
    ).fit(data)


def _assert_identical_answers(original, loaded, queries, k, nprobe):
    batch_original = original.search_batch(queries, k, nprobe=nprobe)
    batch_loaded = loaded.search_batch(queries, k, nprobe=nprobe)
    for got, want in zip(batch_loaded, batch_original):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.n_candidates == want.n_candidates
        assert got.n_exact == want.n_exact
    seq_original = [original.search(q, k, nprobe=nprobe) for q in queries]
    seq_loaded = [loaded.search(q, k, nprobe=nprobe) for q in queries]
    for got, want in zip(seq_loaded, seq_original):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.n_candidates == want.n_candidates
        assert got.n_exact == want.n_exact


def _tamper(path, bad, *, meta=None, sections=None, **header_fields):
    """Re-emit the archive at ``path`` as ``bad`` with the given edits."""
    header, arrays = _read(path)
    header.pop("sections")
    header.update(header_fields)
    header["meta"].update(meta or {})
    arrays.update(sections or {})
    _write_v6_archive(bad, header, arrays)


@pytest.fixture(scope="module")
def lifecycle_data():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((350, 20))
    extra = rng.standard_normal((60, 20))
    queries = rng.standard_normal((8, 20))
    return data, extra, queries


class TestRoundTrip:
    def test_fresh_fit_roundtrip_is_identical(self, lifecycle_data, tmp_path):
        data, _, queries = lifecycle_data
        searcher = _build(data)
        path = tmp_path / "fresh.npz"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        _assert_identical_answers(searcher, loaded, queries, k=10, nprobe=10)

    def test_mutated_searcher_roundtrip_is_identical(
        self, lifecycle_data, tmp_path
    ):
        data, extra, queries = lifecycle_data
        searcher = _build(data, compact_threshold=None)
        searcher.insert(extra)
        # Reads before the save must not matter: search mutates nothing.
        searcher.search_batch(queries[:3], 5, nprobe=4)
        searcher.delete(np.arange(0, 90, 3))
        path = tmp_path / "mutated.npz"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        assert loaded.n_live == searcher.n_live
        assert loaded.n_deleted == searcher.n_deleted
        np.testing.assert_array_equal(loaded.live_ids, searcher.live_ids)
        _assert_identical_answers(searcher, loaded, queries, k=10, nprobe=10)

    def test_compacted_searcher_roundtrip_is_identical(
        self, lifecycle_data, tmp_path
    ):
        data, extra, queries = lifecycle_data
        searcher = _build(data, compact_threshold=None)
        searcher.insert(extra)
        searcher.delete(np.arange(100, 200))
        searcher.compact()
        path = tmp_path / "compacted.npz"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        _assert_identical_answers(searcher, loaded, queries, k=7, nprobe=6)

    def test_hadamard_rotation_roundtrip_is_identical(
        self, lifecycle_data, tmp_path
    ):
        # The structured rotation is stored as its sign diagonals, so the
        # reloaded transform applies identical floating-point operations.
        data, _, queries = lifecycle_data
        searcher = _build(data, rotation="hadamard")
        path = tmp_path / "hadamard.npz"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        _assert_identical_answers(searcher, loaded, queries, k=10, nprobe=10)

    def test_loaded_searcher_supports_further_lifecycle(
        self, lifecycle_data, tmp_path
    ):
        data, extra, queries = lifecycle_data
        original = _build(data, compact_threshold=None)
        path = tmp_path / "continue.npz"
        save_searcher(original, path)
        loaded = load_searcher(path)
        # Apply the same mutations to both; answers must stay identical.
        for searcher in (original, loaded):
            searcher.insert(extra)
            searcher.delete([0, 5, 10])
            searcher.compact()
        _assert_identical_answers(original, loaded, queries, k=8, nprobe=10)

    def test_reranker_and_threshold_are_restored(self, lifecycle_data, tmp_path):
        data, _, _ = lifecycle_data
        searcher = _build(
            data, reranker=TopCandidateReranker(77), compact_threshold=None
        )
        path = tmp_path / "reranker.npz"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        assert isinstance(loaded.reranker, TopCandidateReranker)
        assert loaded.reranker.n_candidates == 77
        assert loaded.compact_threshold is None
        assert loaded.rabitq_config.seed == 3

    def test_extension_is_optional(self, lifecycle_data, tmp_path):
        data, _, queries = lifecycle_data
        searcher = _build(data)
        bare = tmp_path / "searcher_without_ext"
        save_searcher(searcher, bare)
        loaded = load_searcher(bare)
        _assert_identical_answers(searcher, loaded, queries[:2], k=3, nprobe=4)


class TestSearcherArchiveErrors:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_searcher(IVFQuantizedSearcher("rabitq"), tmp_path / "x.npz")

    def test_custom_reranker_rejected(self, lifecycle_data, tmp_path):
        from repro.index.rerank import ErrorBoundReranker

        class FancyReranker(ErrorBoundReranker):
            pass

        data, _, _ = lifecycle_data
        searcher = _build(data)
        searcher.reranker = FancyReranker()
        with pytest.raises(InvalidParameterError):
            save_searcher(searcher, tmp_path / "fancy.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_searcher(tmp_path / "does_not_exist.npz")

    def test_truncated_rejected(self, lifecycle_data, tmp_path):
        data, _, _ = lifecycle_data
        path = tmp_path / "trunc.npz"
        save_searcher(_build(data), path)
        raw = path.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PersistenceError):
            load_searcher(truncated)

    def test_version_mismatch_rejected(self, lifecycle_data, tmp_path):
        data, _, _ = lifecycle_data
        path = tmp_path / "versioned.rbq"
        save_searcher(_build(data), path)
        bad = tmp_path / "future.rbq"
        _tamper(path, bad, format_version=SEARCHER_FORMAT_VERSION + 99)
        with pytest.raises(PersistenceError, match="format version"):
            load_searcher(bad)

    def test_corrupt_field_values_raise_persistence_error(
        self, lifecycle_data, tmp_path
    ):
        # Out-of-range config values and mis-shaped code matrices are file
        # problems, so they surface as PersistenceError, not as the internal
        # validation errors they trigger.
        data, _, _ = lifecycle_data
        path = tmp_path / "fields.rbq"
        save_searcher(_build(data), path)
        _, arrays = _read(path)
        for name, edit in (
            ("rotation_kind", {"meta": {"rotation_kind": "qrx"}}),
            ("epsilon0", {"meta": {"epsilon0": -1.0}}),
            (
                "arena_codes",
                {"sections": {"arena_codes": arrays["arena_codes"][:, :0]}},
            ),
            (
                # Same shape and bytes, read as floats: not code words.
                "arena_codes_dtype",
                {"sections": {"arena_codes": arrays["arena_codes"].view("<f8")}},
            ),
        ):
            bad = tmp_path / f"bad_{name}.rbq"
            _tamper(path, bad, **edit)
            for mmap in (False, True):
                with pytest.raises(PersistenceError):
                    load_searcher(bad, mmap=mmap)

    def test_inconsistent_slot_arrays_rejected(self, lifecycle_data, tmp_path):
        # An archive whose per-slot arrays disagree in length must fail as a
        # PersistenceError, not leak a raw IndexError mid-reconstruction.
        data, _, _ = lifecycle_data
        path = tmp_path / "consistent.rbq"
        save_searcher(_build(data), path)
        _, arrays = _read(path)
        bad = tmp_path / "inconsistent.rbq"
        _tamper(path, bad, sections={"ids": arrays["ids"][:10]})
        with pytest.raises(PersistenceError, match="inconsistent"):
            load_searcher(bad)
        _tamper(path, bad, sections={"arena_codes": arrays["arena_codes"][:10]})
        with pytest.raises(PersistenceError):
            load_searcher(bad)

    def test_quantizer_archive_rejected_by_searcher_loader(
        self, lifecycle_data, tmp_path
    ):
        data, _, _ = lifecycle_data
        path = tmp_path / "quantizer.npz"
        np.savez(
            path,
            magic=np.str_("rabitq/quantizer"),
            format_version=np.int64(4),
            packed_codes=np.zeros((len(data), 1), dtype=np.uint64),
        )
        with pytest.raises(PersistenceError, match="magic"):
            load_searcher(path)
