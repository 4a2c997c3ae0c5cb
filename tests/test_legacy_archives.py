"""Archives written before the current format still load — minus what was removed.

Format v9 dropped what the deleted serving knobs stored: the ``arena_segs``
section (LUT segment ids), the ``estimation_mode`` / ``probe_strategy``
metadata and the ``centroid_graph`` block with its three ``graph_*``
sections.  Format v10 stores the index's rounding vector as the
``rounding_offsets`` section and dropped the generator states
(``quantizer_rng_states`` / ``searcher_rng_state``) that stateful rounding
needed.  The contract pinned here:

* a v6–v8 archive carrying all of those — saved under
  ``estimation_mode="lut"`` and ``probe_strategy="graph"`` — loads
  materialized and memory-mapped, with a journal attached, and answers
  bit-identically (ids, distances, cost counters) to a same-seed twin
  built by this build, through further journaled mutations;
* so does a parent-format (v9) archive: it derives the rounding vector
  from its stored seed exactly as ``fit`` does (a seedless one from seed
  0, so two loads agree) and never reads the retired generator states —
  it answers like *this* build from the same seeds, not like the build
  that wrote it, whose rounding was stateful;
* this build writes v10 without any of them, and a v10 archive of a
  seedless index reloads bit-identically to the live one;
* a stored rounding vector that is missing, mis-sized, non-finite or
  outside ``[0, 1)`` is a ``PersistenceError``;
* the removed constructor arguments are gone, not silently accepted;
* the retired layouts — npz searcher archives (v1–v5) and the sharded
  directory — are refused by ``load_searcher`` with a ``PersistenceError``
  naming what it found, with and without ``mmap`` / ``journal``, and
  their writer, loader and class are gone, not silently accepted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.lut import split_into_segments
from repro.core.quantizer import RaBitQ
from repro.exceptions import JournalError, PersistenceError
from repro.index.rerank import NoReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.io.journal import MutationJournal
from repro.io.persistence import (
    SEARCHER_FORMAT_VERSION,
    _read_v6_header,
    _save_searcher_v6,
    _V6Sections,
    _write_v6_archive,
    default_journal_path,
    load_searcher,
    save_rabitq,
    save_searcher,
)

N, DIM, N_CLUSTERS = 400, 64, 6
K, NPROBE = 5, 3

_DATA = np.random.default_rng(71).standard_normal((N, DIM))
_EXTRA = np.random.default_rng(72).standard_normal((14, DIM))
_LATER = np.random.default_rng(73).standard_normal((9, DIM))
_QUERIES = np.random.default_rng(74).standard_normal((6, DIM))

REMOVED_META = ("estimation_mode", "probe_strategy", "centroid_graph")
#: v6–v9 header keys: the generator states of stateful rounding.
RETIRED_RNG_META = {"quantizer_rng_states", "searcher_rng_state"}
REMOVED_SECTIONS = (
    "arena_segs",
    "graph_nodes",
    "graph_degrees",
    "graph_neighbours",
)


def _build(metric: str = "l2", seed: int | None = 3) -> IVFQuantizedSearcher:
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(seed=seed),
        rng=17,
        metric=metric,
    ).fit(_DATA)
    # Tombstones and a non-trivial id map are part of the archived state.
    searcher.insert(_EXTRA)
    searcher.delete(np.arange(0, 60, 7))
    return searcher


def _mutate(searcher) -> None:
    searcher.insert(_LATER)
    searcher.delete(searcher.live_ids[::11])
    searcher.compact()


def _answers(searcher) -> list[tuple]:
    results = [searcher.search(q, K, nprobe=NPROBE) for q in _QUERIES]
    results += list(searcher.search_batch(_QUERIES, K, nprobe=NPROBE))
    return [
        (r.ids.tolist(), r.distances.tolist(), r.n_candidates, r.n_exact)
        for r in results
    ]


def _stream(searcher) -> list[tuple]:
    """Sequential then batch answers with both cost counters, re-ranked and raw.

    The raw pass (``NoReranker``) reports the estimates themselves, so the
    stream depends on every bit of the kernel output and on the rounding
    vector, not only on which candidates win the re-rank.
    """
    original = searcher.reranker
    out = _answers(searcher)
    searcher.reranker = NoReranker()
    out += _answers(searcher)
    searcher.reranker = original
    return out


def _read(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    header, file_size = _read_v6_header(path)
    sections = _V6Sections(path, header, file_size)
    arrays = {
        entry["name"]: sections.load(entry["name"], mmap=False)
        for entry in header["sections"]
    }
    return header, arrays


def _as_parent_format(path: Path, version: int = 8) -> None:
    """Rewrite the current archive at ``path`` as a ``lut`` + ``graph`` v6–v8 one.

    Same archive UUID (so journals still bind to it), same sections minus
    the rounding vector, plus everything the removed knobs stored.  The
    graph block and sections and the generator states hold arbitrary
    contents: the loader must skip them, never parse them.
    """
    header, arrays = _read(path)
    assert header["format_version"] == SEARCHER_FORMAT_VERSION
    header.pop("sections")
    header["format_version"] = version
    meta = header["meta"]
    del arrays["rounding_offsets"]
    meta["quantizer_rng_states"] = "not a list of states"
    meta["searcher_rng_state"] = {"bit_generator": "NoSuchGenerator"}
    meta["estimation_mode"] = "lut"
    arrays["arena_segs"] = split_into_segments(arrays["arena_bits"])
    if version < 8:
        meta.pop("bits")
    if version >= 7:
        meta["probe_strategy"] = "graph"
        meta["centroid_graph"] = {"m": -1, "layer_sizes": "not a list"}
        for name in REMOVED_SECTIONS[1:]:
            arrays[name] = np.arange(5, dtype=np.int64)
    _write_v6_archive(path, header, arrays)


def _assert_clean(path: Path, version: int = SEARCHER_FORMAT_VERSION) -> None:
    """No removed knob state; the rounding vector xor the generator states."""
    header, arrays = _read(path)
    assert header["format_version"] == version
    assert not set(REMOVED_META) & set(header["meta"])
    assert not set(REMOVED_SECTIONS) & set(arrays)
    stores_vector = version >= 10
    assert ("rounding_offsets" in arrays) == stores_vector
    assert RETIRED_RNG_META & set(header["meta"]) == (
        set() if stores_vector else RETIRED_RNG_META
    )


class TestParentFormatSearcherArchive:
    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    @pytest.mark.parametrize("version", (6, 7, 8))
    def test_loads_and_answers_like_head_twin(self, tmp_path, version, mmap):
        path = tmp_path / "parent.rbq"
        save_searcher(_build(), path)
        _as_parent_format(path, version)
        header, arrays = _read(path)
        assert header["format_version"] == version
        assert header["meta"]["estimation_mode"] == "lut"
        assert "arena_segs" in arrays
        if version >= 7:
            assert header["meta"]["probe_strategy"] == "graph"
            assert set(REMOVED_SECTIONS) <= set(arrays)

        loaded = load_searcher(path, mmap=mmap, journal=True)
        twin = _build()
        assert _stream(loaded) == _stream(twin)
        # Journaled mutations on the legacy load, then crash-recover them.
        _mutate(loaded)
        _mutate(twin)
        assert _stream(loaded) == _stream(twin)
        recovered = load_searcher(path, mmap=mmap, journal=True)
        replayed = _build()
        _mutate(replayed)
        assert _stream(recovered) == _stream(replayed)

    @pytest.mark.parametrize("metric", ("ip", "cosine"))
    def test_similarity_metrics_survive_too(self, tmp_path, metric):
        path = tmp_path / "parent.rbq"
        save_searcher(_build(metric), path)
        _as_parent_format(path)
        assert _stream(load_searcher(path, mmap=True)) == _stream(_build(metric))

    def test_resave_upgrades_to_current_format(self, tmp_path):
        assert SEARCHER_FORMAT_VERSION == 10
        path = tmp_path / "parent.rbq"
        save_searcher(_build(), path)
        _as_parent_format(path)
        upgraded = tmp_path / "upgraded.rbq"
        save_searcher(load_searcher(path), upgraded)
        _assert_clean(upgraded)
        assert upgraded.stat().st_size < path.stat().st_size
        assert _stream(load_searcher(upgraded)) == _stream(_build())

    @pytest.mark.parametrize("version", (6, 7, 8))
    def test_legacy_writer_hook_is_faithful(self, tmp_path, version):
        path = tmp_path / "hook.rbq"
        _save_searcher_v6(_build(), path, _format_version=version)
        header, arrays = _read(path)
        assert header["format_version"] == version
        assert header["meta"]["estimation_mode"] == "gemm"
        assert ("probe_strategy" in header["meta"]) == (version >= 7)
        assert ("bits" in header["meta"]) == (version >= 8)
        assert "rounding_offsets" not in arrays
        assert len(header["meta"]["quantizer_rng_states"]) == N_CLUSTERS
        np.testing.assert_array_equal(
            arrays["arena_segs"], split_into_segments(arrays["arena_bits"])
        )
        assert _stream(load_searcher(path)) == _stream(_build())


class TestV9:
    """The parent format: generator states in the header, no rounding vector."""

    def test_round_trip_bit_identical_without_removed_state(self, tmp_path):
        path = tmp_path / "v9.rbq"
        _save_searcher_v6(_build(), path, _format_version=9)
        _assert_clean(path, version=9)
        for mmap in (False, True):
            assert _stream(load_searcher(path, mmap=mmap)) == _stream(_build())

    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    def test_recovers_journaled_mutations_like_head_twin(self, tmp_path, mmap):
        path = tmp_path / "v9.rbq"
        _save_searcher_v6(_build(), path, _format_version=9)
        loaded = load_searcher(path, mmap=mmap, journal=True)
        _mutate(loaded)
        recovered = load_searcher(path, mmap=mmap, journal=True)
        twin = _build()
        _mutate(twin)
        assert _stream(recovered) == _stream(loaded) == _stream(twin)

    def test_seedless_archive_loads_twice_identically(self, tmp_path):
        path = tmp_path / "seedless.rbq"
        _save_searcher_v6(_build(seed=None), path, _format_version=9)
        assert _read(path)[0]["meta"]["seed"] is None
        first, second = load_searcher(path), load_searcher(path, mmap=True)
        np.testing.assert_array_equal(
            first._rounding_offsets, second._rounding_offsets
        )
        assert _stream(first) == _stream(second)

    def test_retired_generator_states_are_never_read(self, tmp_path):
        path = tmp_path / "v9.rbq"
        _save_searcher_v6(_build(), path, _format_version=9)
        header, arrays = _read(path)
        header.pop("sections")
        header["meta"]["quantizer_rng_states"] = [{"state": 2**200}, "garbage"]
        header["meta"]["searcher_rng_state"] = None
        _write_v6_archive(path, header, arrays)
        assert _stream(load_searcher(path)) == _stream(_build())


class TestV10:
    def test_round_trip_bit_identical_without_removed_state(self, tmp_path):
        path = tmp_path / "v10.rbq"
        save_searcher(_build(), path)
        _assert_clean(path)
        for mmap in (False, True):
            assert _stream(load_searcher(path, mmap=mmap)) == _stream(_build())

    def test_seedless_index_reloads_like_the_live_one(self, tmp_path):
        # seed=None: the vector exists nowhere but in the live index and
        # its archive; the live side has also answered reads meanwhile.
        live = _build(seed=None)
        path = tmp_path / "seedless.rbq"
        save_searcher(live, path)
        want = _stream(live)
        for mmap in (False, True):
            assert _stream(load_searcher(path, mmap=mmap)) == want
        assert _stream(live) == want

    def test_comma_dtype_in_section_table_fails_typed(self, tmp_path):
        # ``np.dtype(",f8")`` raises SyntaxError, not ValueError.  The bit
        # flip that found it is pinned in tests/test_mmap_persistence.py by
        # header position, which moved when the header shrank in v10.
        path = tmp_path / "v10.rbq"
        save_searcher(_build(), path)
        raw = path.read_bytes()
        assert raw.count(b'"dtype": "<f8"') > 1
        path.write_bytes(raw.replace(b'"dtype": "<f8"', b'"dtype": ",f8"', 1))
        for mmap in (False, True):
            with pytest.raises(PersistenceError, match="section table"):
                load_searcher(path, mmap=mmap)

    def test_malformed_rounding_offsets_rejected(self, tmp_path):
        path = tmp_path / "v10.rbq"
        save_searcher(_build(), path)
        header, arrays = _read(path)
        header.pop("sections")
        good = arrays["rounding_offsets"]
        third = np.arange(good.size) == 3
        for bad in (
            None,  # section missing
            good[:-1],
            good[None, :],
            np.where(third, np.nan, good),
            np.where(third, np.inf, good),
            np.where(third, 1.0, good),
            np.where(third, -1e-9, good),
        ):
            broken = {k: v for k, v in arrays.items() if k != "rounding_offsets"}
            if bad is not None:
                broken["rounding_offsets"] = bad
            _write_v6_archive(path, header, broken)
            for mmap in (False, True):
                with pytest.raises(PersistenceError, match="rounding"):
                    load_searcher(path, mmap=mmap)


_LOAD_MODES = (
    {},
    {"mmap": True},
    {"journal": True},
    {"mmap": True, "journal": True},
)


class TestRetiredLayouts:
    @pytest.mark.parametrize("kwargs", _LOAD_MODES, ids=str)
    def test_npz_searcher_archive_is_refused_by_name(self, tmp_path, kwargs):
        path = tmp_path / "v5.npz"
        np.savez(
            path,
            magic=np.str_("rabitq/searcher"),
            format_version=np.int64(5),
        )
        with pytest.raises(PersistenceError, match="npz searcher archive") as e:
            load_searcher(path, **kwargs)
        assert "format v5" in str(e.value) and "422ac16" in str(e.value)
        assert not default_journal_path(path).exists()

    @pytest.mark.parametrize("kwargs", _LOAD_MODES, ids=str)
    def test_quantizer_npz_is_refused_by_name(self, tmp_path, kwargs):
        path = tmp_path / "quantizer.npz"
        save_rabitq(RaBitQ(RaBitQConfig(seed=0)).fit(_DATA), path)
        with pytest.raises(PersistenceError, match="rabitq/quantizer"):
            load_searcher(path, **kwargs)

    @pytest.mark.parametrize("kwargs", _LOAD_MODES, ids=str)
    def test_sharded_directory_is_refused_by_name(self, tmp_path, kwargs):
        root = tmp_path / "sharded"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"magic": "rabitq/sharded", "format_version": 2})
        )
        # Each shard file of an old directory is a plain searcher archive.
        save_searcher(_build(), root / "shard_0000-deadbeef.rbq")
        with pytest.raises(PersistenceError, match="sharded searcher") as e:
            load_searcher(root, **kwargs)
        assert "422ac16" in str(e.value)
        shard = load_searcher(root / "shard_0000-deadbeef.rbq", **kwargs)
        assert _answers(shard) == _answers(_build())

    @pytest.mark.parametrize(
        "content", (b"", b"RBQ", b"not an archive at all", b"PK\x03\x04 torn")
    )
    def test_garbage_is_refused(self, tmp_path, content):
        path = tmp_path / "garbage.rbq"
        path.write_bytes(content)
        for kwargs in _LOAD_MODES:
            with pytest.raises(PersistenceError, match="not a searcher"):
                load_searcher(path, **kwargs)

    def test_sharded_journal_kind_is_refused(self, tmp_path):
        path = tmp_path / "idx.rbq"
        save_searcher(_build(), path)
        header, _ = _read(path)
        MutationJournal.create(
            default_journal_path(path), header["archive_uuid"], "sharded"
        ).close()
        with pytest.raises(JournalError, match="'sharded'"):
            load_searcher(path, journal=True)

    def test_writer_loader_and_class_are_gone(self, tmp_path):
        with pytest.raises(TypeError):
            save_searcher(_build(), tmp_path / "x.npz", layout="npz")
        with pytest.raises(ImportError):
            from repro.index import ShardedSearcher  # noqa: F401
        with pytest.raises(ImportError):
            from repro.io import load_sharded_searcher  # noqa: F401


@pytest.mark.parametrize(
    "removed",
    (
        {"estimation_mode": "gemm"},
        {"probe_strategy": "exact"},
        {"query_cache_size": 0},
    ),
    ids=lambda kwargs: next(iter(kwargs)),
)
def test_removed_constructor_arguments_raise(removed):
    with pytest.raises(TypeError):
        IVFQuantizedSearcher("rabitq", **removed)
