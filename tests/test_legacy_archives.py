"""Archives written before the current format: v9–v11 load, v6–v8 are refused.

Format v10 stores the index's rounding vector as the ``rounding_offsets``
section and dropped the generator states (``quantizer_rng_states`` /
``searcher_rng_state``) that stateful rounding needed.  ``tests/data``
holds two v9 archives written by the parent build, ``aaf8be8`` (see
``tests/data/gen_legacy_v9.py``): an ``l2`` ``B = 1`` archive with a
3-record journal and an ``ip`` ``B = 4`` one, both Hadamard-rotated, with
tombstones and a non-trivial id map.  The contract pinned here:

* a v9 archive loads materialized, memory-mapped, with its journal and
  with both, and answers — ``search`` and ``search_batch``, re-ranked and
  raw: ids, distance bits, ``n_candidates``, ``n_exact`` — bit-identically
  to a twin this build makes from the same seeds, through further
  journaled mutations and crash recovery.  It derives the rounding vector
  from its stored seed exactly as ``fit`` does (a seedless one from seed
  0, so two loads agree) and never reads the retired generator states;
* a v6, v7 or v8 header is refused with a ``PersistenceError`` naming the
  version and ``aaf8be8``, the last commit that reads it;
* this build writes v12 without any of the retired state, and a v12
  archive of a seedless index reloads bit-identically to the live one;
* format v12 stores only the constants the estimator cannot derive.
  ``tests/data`` holds two v11 archives written by ``f7bf855`` (see
  ``tests/data/gen_legacy_v11.py``) for the layouts the v9 ones do not
  cover, ``l2`` at ``B = 4`` (with a journal) and ``cosine`` at ``B = 1``.
  Each loads materialized, memory-mapped and with its journal, keeps only
  its stored rows (the view derived from them is the one v11 stored, bit
  for bit), answers like its twin and re-saves as v12; an archive whose
  ``n_consts`` (or constants section) does not match its version's
  layout is a ``PersistenceError``;
* a stored rounding vector that is missing, mis-sized, non-finite or
  outside ``[0, 1)`` is a ``PersistenceError``;
* the removed constructor arguments are gone, not silently accepted;
* the retired layouts — npz searcher archives (v1–v5) and the sharded
  directory — are refused by ``load_searcher`` with a ``PersistenceError``
  naming what it found, with and without ``mmap`` / ``journal``, and
  their writer, loader and class are gone, not silently accepted.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.core.estimator import (
    n_consts_for,
    n_stored_consts_for,
    stored_view_rows,
)
from repro.core.query import sample_rounding_offsets
from repro.exceptions import JournalError, PersistenceError
from repro.index.rerank import NoReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.io.journal import MutationJournal, read_journal
from repro.io.persistence import (
    SEARCHER_FORMAT_VERSION,
    _read_v6_header,
    _V6Sections,
    _write_v6_archive,
    default_journal_path,
    load_searcher,
    save_searcher,
)

_DATA_DIR = Path(__file__).resolve().parent / "data"


def _generator(name: str):
    spec = importlib.util.spec_from_file_location(name, _DATA_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The generators own the fixture scenario (data, seeds, mutations); the twins
# below are built by exactly the functions that built the archived indexes.
_gen = _generator("gen_legacy_v9")
_gen11 = _generator("gen_legacy_v11")
#: Every committed fixture: archive name -> (metric, bits).
_FIXTURES = {**_gen.ARCHIVES, **_gen11.ARCHIVES}

L2_V9, IP_V9 = "v9_l2_b1.rbq", "v9_ip_b4.rbq"
L2_V11, COSINE_V11 = "v11_l2_b4.rbq", "v11_cosine_b1.rbq"
V6_V8_COMMIT = "aaf8be8"
QUANTIZER_NPZ_COMMIT = "3b59eee"

N, DIM, N_CLUSTERS = 400, 64, 6
K, NPROBE = 5, 3

_DATA = np.random.default_rng(71).standard_normal((N, DIM))
_EXTRA = np.random.default_rng(72).standard_normal((14, DIM))
_QUERIES = np.random.default_rng(74).standard_normal((6, DIM))
#: Rows inserted after a v9 archive's own journal has been replayed.
_MORE = np.random.default_rng(75).standard_normal((7, _gen.DIM)) + 0.2

REMOVED_META = ("estimation_mode", "probe_strategy", "centroid_graph")
#: v9 header keys: the generator states of stateful rounding.
RETIRED_RNG_META = {"quantizer_rng_states", "searcher_rng_state"}
REMOVED_SECTIONS = (
    "arena_segs",
    "graph_nodes",
    "graph_degrees",
    "graph_neighbours",
)

_LOAD_MODES = (
    {},
    {"mmap": True},
    {"journal": True},
    {"mmap": True, "journal": True},
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


def _fixture(tmp_path: Path, name: str = L2_V9) -> Path:
    """A private copy of a committed v9 archive and its journal (loads that
    attach a journal append to it, and the fixture must never change)."""
    for source in _DATA_DIR.glob(name + "*"):
        shutil.copyfile(source, tmp_path / source.name)
    return tmp_path / name


def _twin(name: str = L2_V9, *, journaled: bool = False, metric=None):
    """What this build makes of the fixture's scenario: the archived state,
    plus the journaled mutations when ``journaled``."""
    archived_metric, bits = _FIXTURES[name]
    searcher = _gen.build(metric or archived_metric, bits)
    if journaled:
        _gen.mutate(searcher)
    return searcher


def _mutate_more(searcher) -> None:
    searcher.insert(_MORE)
    searcher.delete(searcher.live_ids[::5])


def _answers(searcher, queries=_QUERIES, k=K, nprobe=NPROBE) -> list[tuple]:
    results = [searcher.search(q, k, nprobe=nprobe) for q in queries]
    results += list(searcher.search_batch(queries, k, nprobe=nprobe))
    # Distances as raw bytes: equal means equal bits (0.0 vs -0.0 too).
    return [
        (r.ids.tolist(), r.distances.tobytes(), r.n_candidates, r.n_exact)
        for r in results
    ]


def _stream(searcher, *scenario) -> list[tuple]:
    """Sequential then batch answers with both cost counters, re-ranked and raw.

    The raw pass (``NoReranker``) reports the estimates themselves, so the
    stream depends on every bit of the kernel output and on the rounding
    vector, not only on which candidates win the re-rank.
    """
    original = searcher.reranker
    out = _answers(searcher, *scenario)
    searcher.reranker = NoReranker()
    out += _answers(searcher, *scenario)
    searcher.reranker = original
    return out


def _v9_stream(searcher) -> list[tuple]:
    return _stream(searcher, _gen.QUERIES, _gen.K, _gen.NPROBE)


def _read(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    header, file_size = _read_v6_header(path)
    sections = _V6Sections(path, header, file_size)
    arrays = {
        entry["name"]: sections.load(entry["name"], mmap=False)
        for entry in header["sections"]
    }
    return header, arrays


def _rewrite(path: Path, edit) -> None:
    """Rewrite the archive at ``path`` after ``edit(header, arrays)``; the
    archive UUID stays, so a journal still binds to it."""
    header, arrays = _read(path)
    header.pop("sections")
    edit(header, arrays)
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
    def test_fixture_is_a_faithful_v9_archive(self):
        paths = [_DATA_DIR / name for name in _gen.ARCHIVES]
        assert sum(path.stat().st_size for path in paths) <= 64 * 1024
        for path, (metric, bits) in zip(paths, _gen.ARCHIVES.values()):
            _assert_clean(path, version=9)
            meta = _read(path)[0]["meta"]
            assert (meta["metric"], meta["bits"]) == (metric, bits)
            assert (meta["rotation"], meta["rotation_kind"]) == (
                "signs",
                "hadamard",
            )
            assert len(meta["quantizer_rng_states"]) == _gen.N_CLUSTERS
        journal = read_journal(default_journal_path(_DATA_DIR / L2_V9))
        assert journal.archive_uuid == _read(_DATA_DIR / L2_V9)[0]["archive_uuid"]
        assert [r.op for r in journal.records] == ["insert", "delete", "compact"]
        assert not journal.truncated
        assert not default_journal_path(_DATA_DIR / IP_V9).exists()

    @pytest.mark.parametrize("kwargs", _LOAD_MODES, ids=str)
    def test_loads_and_answers_like_head_twin(self, tmp_path, kwargs):
        path = _fixture(tmp_path)
        journaled = kwargs.get("journal", False)
        loaded = load_searcher(path, **kwargs)
        twin = _twin(journaled=journaled)
        assert _v9_stream(loaded) == _v9_stream(twin)
        # Further mutations on the legacy load (journaled when attached),
        # then crash-recover them.
        _mutate_more(loaded)
        _mutate_more(twin)
        assert _v9_stream(loaded) == _v9_stream(twin)
        if journaled:
            recovered = load_searcher(path, **kwargs)
            assert _v9_stream(recovered) == _v9_stream(twin)

    @pytest.mark.parametrize("metric", ("ip", "cosine"))
    def test_similarity_metrics_survive_too(self, tmp_path, metric):
        # ip and cosine archives differ only in the header's metric (same
        # k-means, same constants), so the cosine archive is the ip one
        # relabelled.
        path = _fixture(tmp_path, IP_V9)
        _rewrite(path, lambda header, _: header["meta"].update(metric=metric))
        loaded = load_searcher(path, mmap=True)
        assert (loaded.metric, loaded.bits) == (metric, 4)
        assert _v9_stream(loaded) == _v9_stream(_twin(IP_V9, metric=metric))

    def test_resave_upgrades_to_current_format(self, tmp_path):
        assert SEARCHER_FORMAT_VERSION == 12
        upgraded = tmp_path / "upgraded.rbq"
        save_searcher(load_searcher(_fixture(tmp_path)), upgraded)
        _assert_clean(upgraded)
        assert _v9_stream(load_searcher(upgraded)) == _v9_stream(_twin())

    @pytest.mark.parametrize("kwargs", _LOAD_MODES, ids=str)
    @pytest.mark.parametrize("version", (6, 7, 8))
    def test_pre_v9_header_is_refused_naming_the_commit(
        self, tmp_path, version, kwargs
    ):
        path = _fixture(tmp_path, IP_V9)
        _rewrite(
            path, lambda header, _: header.update(format_version=version)
        )
        with pytest.raises(PersistenceError, match=f"format v{version}") as e:
            load_searcher(path, **kwargs)
        assert V6_V8_COMMIT in str(e.value)
        assert not default_journal_path(path).exists()


class TestV9:
    """The parent format: generator states in the header, no rounding vector."""

    def test_round_trip_bit_identical_without_removed_state(self, tmp_path):
        path = _fixture(tmp_path)
        _assert_clean(path, version=9)
        for mmap in (False, True):
            assert _v9_stream(load_searcher(path, mmap=mmap)) == _v9_stream(
                _twin()
            )

    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    def test_recovers_journaled_mutations_like_head_twin(self, tmp_path, mmap):
        path = _fixture(tmp_path)
        loaded = load_searcher(path, mmap=mmap, journal=True)
        _mutate_more(loaded)
        recovered = load_searcher(path, mmap=mmap, journal=True)
        twin = _twin(journaled=True)
        _mutate_more(twin)
        assert _v9_stream(recovered) == _v9_stream(loaded) == _v9_stream(twin)
        assert len(read_journal(default_journal_path(path)).records) == 5

    def test_seedless_archive_loads_twice_identically(self, tmp_path):
        path = _fixture(tmp_path)
        _rewrite(path, lambda header, _: header["meta"].update(seed=None))
        first, second = load_searcher(path), load_searcher(path, mmap=True)
        np.testing.assert_array_equal(
            first._rounding_offsets, second._rounding_offsets
        )
        np.testing.assert_array_equal(
            first._rounding_offsets, sample_rounding_offsets(0, 64)
        )
        assert _v9_stream(first) == _v9_stream(second)

    def test_retired_generator_states_are_never_read(self, tmp_path):
        path = _fixture(tmp_path)

        def garble(header, _):
            header["meta"]["quantizer_rng_states"] = [{"state": 2**200}, "x"]
            header["meta"]["searcher_rng_state"] = None

        _rewrite(path, garble)
        assert _v9_stream(load_searcher(path)) == _v9_stream(_twin())


class TestV11:
    """The parent format: every row of the constants view stored."""

    def test_fixtures_are_faithful_v11_archives(self):
        paths = [_DATA_DIR / name for name in _gen11.ARCHIVES]
        assert sum(path.stat().st_size for path in paths) <= 64 * 1024
        for path, (metric, bits) in zip(paths, _gen11.ARCHIVES.values()):
            _assert_clean(path, version=11)
            header, arrays = _read(path)
            meta = header["meta"]
            assert (meta["metric"], meta["bits"]) == (metric, bits)
            assert meta["n_consts"] == n_consts_for(metric, bits)
            assert arrays["arena_consts"].shape[0] == meta["n_consts"]
        journal = read_journal(default_journal_path(_DATA_DIR / L2_V11))
        assert journal.archive_uuid == _read(_DATA_DIR / L2_V11)[0]["archive_uuid"]
        assert [r.op for r in journal.records] == ["insert", "delete", "compact"]
        assert not default_journal_path(_DATA_DIR / COSINE_V11).exists()

    @pytest.mark.parametrize("kwargs", _LOAD_MODES, ids=str)
    @pytest.mark.parametrize("name", (L2_V11, COSINE_V11))
    def test_loads_and_answers_like_head_twin(self, tmp_path, name, kwargs):
        path = _fixture(tmp_path, name)
        journal = kwargs.get("journal", False)
        loaded = load_searcher(path, **kwargs)
        twin = _twin(name, journaled=journal and name == L2_V11)
        assert _v9_stream(loaded) == _v9_stream(twin)
        _mutate_more(loaded)
        _mutate_more(twin)
        assert _v9_stream(loaded) == _v9_stream(twin)
        if journal:
            recovered = load_searcher(path, **kwargs)
            assert _v9_stream(recovered) == _v9_stream(twin)

    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    @pytest.mark.parametrize("name", (L2_V11, COSINE_V11))
    def test_keeps_the_stored_rows_and_derives_the_rest(self, tmp_path, name, mmap):
        _, bits = _gen11.ARCHIVES[name]
        view = _read(_DATA_DIR / name)[1]["arena_consts"]
        arena = load_searcher(_fixture(tmp_path, name), mmap=mmap).arena
        np.testing.assert_array_equal(
            arena.consts, view[stored_view_rows(view.shape[0], bits > 1)]
        )
        derived = np.hstack(
            [arena.cluster_consts(cid) for cid in range(arena.n_clusters)]
        )
        np.testing.assert_array_equal(derived.view(np.int64), view.view(np.int64))

    @pytest.mark.parametrize("name", (L2_V11, COSINE_V11))
    def test_resave_writes_v12_with_the_stored_rows_only(self, tmp_path, name):
        metric, bits = _gen11.ARCHIVES[name]
        upgraded = tmp_path / "upgraded.rbq"
        save_searcher(load_searcher(_fixture(tmp_path, name), mmap=True), upgraded)
        _assert_clean(upgraded)
        header, arrays = _read(upgraded)
        n_stored = n_stored_consts_for(metric, bits)
        assert header["meta"]["n_consts"] == n_stored
        assert arrays["arena_consts"].shape[0] == n_stored
        assert upgraded.stat().st_size < (_DATA_DIR / name).stat().st_size
        assert _v9_stream(load_searcher(upgraded)) == _v9_stream(_twin(name))


class TestConstsLayoutMismatch:
    """``n_consts`` counts the view in v9–v11 and the stored rows in v12;
    either count in the other's archive fails typed."""

    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    def test_v12_archive_declaring_the_view_count_is_refused(self, tmp_path, mmap):
        path = tmp_path / "v12.rbq"
        save_searcher(_twin(L2_V11), path)
        view_count = n_consts_for("l2", 4)
        _rewrite(path, lambda header, _: header["meta"].update(n_consts=view_count))
        with pytest.raises(PersistenceError, match="v12 archive stores 8 fused"):
            load_searcher(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    def test_v11_archive_declaring_the_stored_count_is_refused(self, tmp_path, mmap):
        path = _fixture(tmp_path, L2_V11)
        stored_count = n_stored_consts_for("l2", 4)
        _rewrite(
            path, lambda header, _: header["meta"].update(n_consts=stored_count)
        )
        with pytest.raises(PersistenceError, match="v11 archive stores 3 fused"):
            load_searcher(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
    def test_constants_section_of_the_other_layout_is_refused(self, tmp_path, mmap):
        # The header count matches the version, the section does not.
        v11 = _fixture(tmp_path, L2_V11)
        v12 = tmp_path / "v12.rbq"
        save_searcher(_twin(L2_V11), v12)
        stored = _read(v12)[1]["arena_consts"]
        view = _read(v11)[1]["arena_consts"]

        def swap(consts):
            return lambda _, arrays: arrays.update(arena_consts=consts)

        _rewrite(v11, swap(stored))
        _rewrite(v12, swap(view))
        for path in (v11, v12):
            with pytest.raises(PersistenceError, match="section '(arena_)?consts'"):
                load_searcher(path, mmap=mmap)


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
        np.savez(
            path,
            magic=np.str_("rabitq/quantizer"),
            format_version=np.int64(4),
            packed_codes=np.zeros((len(_DATA), 1), dtype=np.uint64),
        )
        with pytest.raises(PersistenceError, match="rabitq/quantizer"):
            load_searcher(path, **kwargs)

    @pytest.mark.parametrize("version", (2, 3, 4))
    def test_quantizer_npz_names_the_last_commit_that_reads_it(
        self, tmp_path, version
    ):
        path = tmp_path / "quantizer.npz"
        np.savez(
            path,
            magic=np.str_("rabitq/quantizer"),
            format_version=np.int64(version),
        )
        for kwargs in _LOAD_MODES:
            with pytest.raises(PersistenceError, match="retired") as e:
                load_searcher(path, **kwargs)
            assert f"format v{version}" in str(e.value)
            assert QUANTIZER_NPZ_COMMIT in str(e.value)

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
        with pytest.raises(ImportError):
            from repro.io.persistence import _save_searcher_v6  # noqa: F401


@pytest.mark.parametrize(
    "removed",
    (
        {"estimation_mode": "gemm"},
        {"probe_strategy": "exact"},
        {"query_cache_size": 0},
        {"external_quantizer": None},
    ),
    ids=lambda kwargs: next(iter(kwargs)),
)
def test_removed_constructor_arguments_raise(removed):
    with pytest.raises(TypeError):
        IVFQuantizedSearcher("rabitq", **removed)
