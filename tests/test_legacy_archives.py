"""Archives written before the v9 format still load — minus the removed knobs.

Format v9 dropped what the deleted serving knobs stored: the ``arena_segs``
section (LUT segment ids), the ``estimation_mode`` / ``probe_strategy``
metadata and the ``centroid_graph`` block with its three ``graph_*``
sections.  The contract pinned here:

* a parent-format (v6–v8) archive carrying all of those — saved under
  ``estimation_mode="lut"`` and ``probe_strategy="graph"`` — loads
  materialized and memory-mapped, with a journal attached, and answers
  bit-identically (ids, distances, cost counters) to a same-seed twin
  built by this build, through further journaled mutations;
* the same for a v2 sharded directory whose manifest carries both keys;
* this build writes v9 without any of them, the ``layout="npz"`` writer
  emits the constants ``"gemm"`` / ``"exact"``, and npz archives carrying
  other values (or no keys at all) load onto the same single code path;
* the removed constructor arguments are gone, not silently accepted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.lut import split_into_segments
from repro.index.rerank import NoReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.index.sharded import ShardedSearcher
from repro.io.persistence import (
    SEARCHER_FORMAT_VERSION,
    _read_v6_header,
    _save_searcher_v6,
    _V6Sections,
    _write_v6_archive,
    load_searcher,
    load_sharded_searcher,
    save_searcher,
    save_sharded_searcher,
)

N, DIM, N_CLUSTERS = 400, 64, 6
K, NPROBE = 5, 3

_DATA = np.random.default_rng(71).standard_normal((N, DIM))
_EXTRA = np.random.default_rng(72).standard_normal((14, DIM))
_LATER = np.random.default_rng(73).standard_normal((9, DIM))
_QUERIES = np.random.default_rng(74).standard_normal((6, DIM))

REMOVED_META = ("estimation_mode", "probe_strategy", "centroid_graph")
REMOVED_SECTIONS = (
    "arena_segs",
    "graph_nodes",
    "graph_degrees",
    "graph_neighbours",
)


def _build(metric: str = "l2") -> IVFQuantizedSearcher:
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(seed=3),
        rng=17,
        metric=metric,
    ).fit(_DATA)
    # Tombstones and a non-trivial id map are part of the archived state.
    searcher.insert(_EXTRA)
    searcher.delete(np.arange(0, 60, 7))
    return searcher


def _build_sharded() -> ShardedSearcher:
    sharded = ShardedSearcher(
        2,
        n_threads=0,
        n_clusters=4,
        rabitq_config=RaBitQConfig(seed=3),
        rng=17,
    ).fit(_DATA)
    sharded.insert(_EXTRA)
    sharded.delete(np.arange(0, 60, 7))
    return sharded


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
    stream depends on every bit of the kernel output and on the state of
    every rounding stream, not only on which candidates win the re-rank.
    """
    engines = getattr(searcher, "shards", [searcher])
    originals = [engine.reranker for engine in engines]
    out = _answers(searcher)
    for engine in engines:
        engine.reranker = NoReranker()
    out += _answers(searcher)
    for engine, original in zip(engines, originals):
        engine.reranker = original
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
    """Rewrite the v9 archive at ``path`` as a ``lut`` + ``graph`` v6–v8 one.

    Same archive UUID (so journals still bind to it), same sections, plus
    everything the removed knobs stored.  The graph block and sections hold
    arbitrary contents: the loader must skip them, never parse them.
    """
    header, arrays = _read(path)
    assert header["format_version"] == SEARCHER_FORMAT_VERSION
    header.pop("sections")
    header["format_version"] = version
    meta = header["meta"]
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


def _assert_v9_clean(path: Path) -> None:
    header, arrays = _read(path)
    assert header["format_version"] == SEARCHER_FORMAT_VERSION == 9
    assert not set(REMOVED_META) & set(header["meta"])
    assert not set(REMOVED_SECTIONS) & set(arrays)


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

    def test_resave_upgrades_to_v9(self, tmp_path):
        path = tmp_path / "parent.rbq"
        save_searcher(_build(), path)
        _as_parent_format(path)
        upgraded = tmp_path / "upgraded.rbq"
        save_searcher(load_searcher(path), upgraded)
        _assert_v9_clean(upgraded)
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
        np.testing.assert_array_equal(
            arrays["arena_segs"], split_into_segments(arrays["arena_bits"])
        )
        assert _stream(load_searcher(path)) == _stream(_build())


class TestV9:
    def test_round_trip_bit_identical_without_removed_state(self, tmp_path):
        path = tmp_path / "v9.rbq"
        save_searcher(_build(), path)
        _assert_v9_clean(path)
        for mmap in (False, True):
            assert _stream(load_searcher(path, mmap=mmap)) == _stream(_build())


class TestParentFormatShardedDirectory:
    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    def test_manifest_keys_and_legacy_shards_are_ignored(self, tmp_path, mmap):
        root = tmp_path / "sharded"
        save_sharded_searcher(_build_sharded(), root)
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 2
        assert not {"estimation_mode", "probe_strategy"} & set(manifest)
        manifest["estimation_mode"] = "lut"
        manifest["probe_strategy"] = "graph"
        manifest_path.write_text(json.dumps(manifest))
        for name in manifest["shard_files"]:
            _assert_v9_clean(root / name)
            _as_parent_format(root / name)

        loaded = load_sharded_searcher(root, mmap=mmap, journal=True)
        twin = _build_sharded()
        assert _stream(loaded) == _stream(twin)
        _mutate(loaded)
        _mutate(twin)
        assert _stream(loaded) == _stream(twin)
        recovered = load_sharded_searcher(root, mmap=mmap, journal=True)
        replayed = _build_sharded()
        _mutate(replayed)
        assert _stream(recovered) == _stream(replayed)


class TestNpzLayout:
    @staticmethod
    def _rewrite(src: Path, dst: Path, **changes) -> None:
        with np.load(src, allow_pickle=False) as archive:
            entries = {name: archive[name] for name in archive.files}
        for name, value in changes.items():
            if value is None:
                entries.pop(name)
            else:
                entries[name] = value
        np.savez_compressed(dst, **entries)

    def test_writer_emits_the_constants_older_builds_read(self, tmp_path):
        path = tmp_path / "head.npz"
        save_searcher(_build(), path, layout="npz")
        with np.load(path, allow_pickle=False) as archive:
            assert int(archive["format_version"]) == 5
            assert str(archive["estimation_mode"]) == "gemm"
            assert str(archive["probe_strategy"]) == "exact"
        assert _stream(load_searcher(path)) == _stream(_build())

    def test_other_values_and_missing_keys_load_the_same(self, tmp_path):
        path = tmp_path / "head.npz"
        save_searcher(_build(), path, layout="npz")
        lut_graph = tmp_path / "lut_graph.npz"
        self._rewrite(
            path,
            lut_graph,
            estimation_mode=np.str_("lut8"),
            probe_strategy=np.str_("graph"),
        )
        # A v5 archive minus the two keys *is* a v4 archive.
        v4 = tmp_path / "v4.npz"
        self._rewrite(
            path,
            v4,
            estimation_mode=None,
            probe_strategy=None,
            format_version=np.int64(4),
        )
        want = _stream(_build())
        assert _stream(load_searcher(lut_graph)) == want
        assert _stream(load_searcher(v4)) == want


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
    with pytest.raises(TypeError):
        ShardedSearcher(2, **removed)
