"""Memory-mapped (zero-copy) archive loading: equivalence and rejection.

``load_searcher(path, mmap=True)`` maps a format-v6 archive's large
sections (packed codes, fused constants, raw vectors)
straight from the file instead of materializing them.  The contract under
test:

* **Equivalence** — a memory-mapped searcher's result stream (ids,
  distances, ``n_exact``) is element-wise identical to a materialized
  load of the same archive, across every metric.
* **Mutability** — an mmap-loaded searcher still supports the full
  mutation lifecycle; the first mutation reallocates in memory and the
  mapped file is never written.
* **Rejection** — a truncated, misaligned or internally-inconsistent v6
  section table raises :class:`PersistenceError` at load time.  Corrupt
  archives must never produce garbage results.
* **Typed failure** — whatever truncation or bit-flip hits the archive or
  its journal, the one remaining reader either serves or raises
  :class:`PersistenceError`; no other exception type escapes.
"""

from __future__ import annotations

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fault_injection import assert_stream_equal, result_stream
from repro.core.config import RaBitQConfig
from repro.exceptions import PersistenceError
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import default_journal_path, load_searcher, save_searcher
from repro.io.persistence import V6_MAGIC

METRICS = ("l2", "ip", "cosine")

N, DIM, N_CLUSTERS = 220, 16, 5
K, NPROBE = 5, 3

_V6_PREFIX = struct.Struct("<8sQ")
_JOURNAL_PREFIX = struct.Struct("<8sI")

_DATA = np.random.default_rng(55).standard_normal((N, DIM))
_EXTRA = np.random.default_rng(56).standard_normal((12, DIM))
_QUERIES = np.random.default_rng(57).standard_normal((4, DIM))


def _stream(searcher) -> dict:
    return result_stream(searcher, _QUERIES, k=K, nprobe=NPROBE)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """One mutated v6 archive per metric, built lazily."""
    root = tmp_path_factory.mktemp("mmap_archives")
    cache: dict[str, Path] = {}

    def build(metric: str) -> Path:
        if metric not in cache:
            searcher = IVFQuantizedSearcher(
                "rabitq",
                n_clusters=N_CLUSTERS,
                rabitq_config=RaBitQConfig(seed=9),
                rng=11,
                metric=metric,
            )
            searcher.fit(_DATA)
            # Mutate before saving so tombstones and a non-trivial id map
            # are part of the archived state.
            searcher.insert(_EXTRA)
            searcher.delete(np.arange(0, 40, 5))
            path = root / f"{metric}.rbq"
            save_searcher(searcher, path)
            cache[metric] = path
        return cache[metric]

    return build


# --------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------- #


class TestMmapEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    def test_mmap_stream_identical_to_materialized(self, archives, metric):
        path = archives(metric)
        materialized = load_searcher(path)
        mapped = load_searcher(path, mmap=True)
        assert_stream_equal(_stream(mapped), _stream(materialized), metric)

    def test_mmap_sections_are_memmapped(self, archives):
        def file_backed(array) -> bool:
            # Wrappers like FlatIndex strip the np.memmap subclass via
            # np.asarray but keep the mapped buffer: walk the base chain.
            while array is not None:
                if isinstance(array, np.memmap):
                    return True
                array = getattr(array, "base", None)
            return False

        mapped = load_searcher(archives("l2"), mmap=True)
        # The big sections are zero-copy views of the file...
        assert isinstance(mapped._arena.codes, np.memmap)
        assert isinstance(mapped._arena.consts, np.memmap)
        assert file_backed(mapped.flat.data)
        # ...while the arrays that mutations write in place (tombstone
        # mask, external-id map) are private, writable copies.
        assert not file_backed(mapped._live)
        assert not file_backed(mapped._ids)
        assert mapped._live.flags.writeable

    def test_mmap_searcher_survives_full_mutation_lifecycle(self, archives):
        path = archives("l2")
        before = Path(path).read_bytes()
        mapped = load_searcher(path, mmap=True)
        twin = load_searcher(path)
        rng_m = np.random.default_rng(3)
        rng_t = np.random.default_rng(3)
        for searcher, rng in ((mapped, rng_m), (twin, rng_t)):
            searcher.insert(rng.standard_normal((7, DIM)))
            searcher.delete(searcher.live_ids[::9])
            searcher.compact()
        assert_stream_equal(
            _stream(mapped), _stream(twin), "post-mutation mmap vs twin"
        )
        # The mapped file itself was never written to.
        assert Path(path).read_bytes() == before

    def test_mutated_mmap_searcher_resaves_cleanly(self, archives, tmp_path):
        mapped = load_searcher(archives("ip"), mmap=True)
        mapped.insert(np.random.default_rng(4).standard_normal((5, DIM)))
        out = tmp_path / "resaved.rbq"
        save_searcher(mapped, out)
        reloaded = load_searcher(out)
        assert_stream_equal(_stream(reloaded), _stream(mapped), "resave")


# --------------------------------------------------------------------- #
# Rejection: corrupt v6 containers fail loudly, never return garbage
# --------------------------------------------------------------------- #


def _tampered(path: Path, out: Path, mutate) -> Path:
    """Copy ``path`` with its v6 JSON header mutated in place.

    The mutated header is space-padded back to the original length so
    every section offset recorded in it stays byte-accurate — only the
    mutation itself is under test, not a shifted layout.
    """
    raw = bytearray(Path(path).read_bytes())
    magic, header_len = _V6_PREFIX.unpack_from(raw)
    assert magic == V6_MAGIC
    start = _V6_PREFIX.size
    header = json.loads(bytes(raw[start : start + header_len]))
    mutate(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    assert len(encoded) <= header_len, "header mutation must not grow it"
    raw[start : start + header_len] = encoded.ljust(header_len, b" ")
    out.write_bytes(bytes(raw))
    return out


@pytest.fixture()
def v6_path(archives):
    return archives("l2")


@pytest.mark.parametrize("mmap", (False, True), ids=("materialized", "mmap"))
class TestV6Rejection:
    def test_truncated_archive_rejected(self, v6_path, tmp_path, mmap):
        raw = v6_path.read_bytes()
        bad = tmp_path / "truncated.rbq"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PersistenceError):
            load_searcher(bad, mmap=mmap)

    def test_short_prefix_rejected(self, v6_path, tmp_path, mmap):
        bad = tmp_path / "short.rbq"
        bad.write_bytes(V6_MAGIC)
        with pytest.raises(PersistenceError, match="short v6 prefix"):
            load_searcher(bad, mmap=mmap)

    def test_implausible_header_length_rejected(self, v6_path, tmp_path, mmap):
        bad = tmp_path / "huge_header.rbq"
        bad.write_bytes(_V6_PREFIX.pack(V6_MAGIC, 2**40) + b"\0" * 64)
        with pytest.raises(PersistenceError, match="implausible"):
            load_searcher(bad, mmap=mmap)

    def test_unparseable_header_rejected(self, v6_path, tmp_path, mmap):
        raw = bytearray(v6_path.read_bytes())
        raw[_V6_PREFIX.size : _V6_PREFIX.size + 4] = b"\xff\xff\xff\xff"
        bad = tmp_path / "scribbled.rbq"
        bad.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="corrupt v6 header"):
            load_searcher(bad, mmap=mmap)

    def test_misaligned_section_rejected(self, v6_path, tmp_path, mmap):
        # Section offsets are multiples of 64; nudging one breaks the
        # alignment contract that memmapped kernels rely on.
        def mutate(header):
            header["sections"][1]["offset"] += 1

        bad = _tampered(v6_path, tmp_path / "misaligned.rbq", mutate)
        with pytest.raises(PersistenceError, match="misaligned"):
            load_searcher(bad, mmap=mmap)

    def test_inconsistent_section_nbytes_rejected(self, v6_path, tmp_path, mmap):
        # A shape that disagrees with the declared byte count means the
        # table was corrupted — reading either interpretation could
        # silently misparse neighbouring sections.
        def mutate(header):
            for entry in header["sections"]:
                if entry["name"] == "data":
                    entry["shape"][0] -= 1

        bad = _tampered(v6_path, tmp_path / "inconsistent.rbq", mutate)
        with pytest.raises(PersistenceError, match="inconsistent section"):
            load_searcher(bad, mmap=mmap)

    def test_section_past_eof_rejected(self, v6_path, tmp_path, mmap):
        # Cut the file mid-way through the last section: its table entry
        # now extends past EOF.
        raw = v6_path.read_bytes()
        header_len = _V6_PREFIX.unpack_from(raw)[1]
        header = json.loads(raw[_V6_PREFIX.size : _V6_PREFIX.size + header_len])
        last = max(header["sections"], key=lambda e: e["offset"])
        bad = tmp_path / "cut.rbq"
        bad.write_bytes(raw[: last["offset"] + max(1, last["nbytes"] // 2)])
        with pytest.raises(PersistenceError, match="past the end"):
            load_searcher(bad, mmap=mmap)

    def test_missing_section_rejected(self, v6_path, tmp_path, mmap):
        def mutate(header):
            header["sections"] = [
                e for e in header["sections"] if e["name"] != "arena_codes"
            ]

        bad = _tampered(v6_path, tmp_path / "missing.rbq", mutate)
        with pytest.raises(PersistenceError, match="no section"):
            load_searcher(bad, mmap=mmap)

    def test_malformed_section_entry_rejected(self, v6_path, tmp_path, mmap):
        def mutate(header):
            del header["sections"][0]["dtype"]

        bad = _tampered(v6_path, tmp_path / "malformed.rbq", mutate)
        with pytest.raises(PersistenceError, match="malformed"):
            load_searcher(bad, mmap=mmap)

    def test_absent_section_table_rejected(self, v6_path, tmp_path, mmap):
        def mutate(header):
            header["sections"] = None

        bad = _tampered(v6_path, tmp_path / "tableless.rbq", mutate)
        with pytest.raises(PersistenceError, match="no section table"):
            load_searcher(bad, mmap=mmap)


# --------------------------------------------------------------------- #
# Typed failure: damage anywhere surfaces as PersistenceError or not at all
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def journaled_bytes(tmp_path_factory):
    """A small v9 archive and its journal of three mutations, as bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "idx.rbq"
    searcher = IVFQuantizedSearcher(
        "rabitq", n_clusters=3, rabitq_config=RaBitQConfig(seed=9), rng=11
    ).fit(_DATA[:60])
    save_searcher(searcher, path)
    live = load_searcher(path, journal=True)
    live.insert(_EXTRA)
    live.delete(np.arange(0, 30, 4))
    live.compact()
    live._journal.close()
    return path.read_bytes(), default_journal_path(path).read_bytes()


#: (file, kind, position): the position is reduced modulo the length of the
#: region the damage applies to (whole file, or prefix + JSON header).
_DAMAGE = st.tuples(
    st.sampled_from(("archive", "journal")),
    st.sampled_from(("truncate", "flip_header", "flip_anywhere")),
    st.integers(0, 2**40),
)


def _header_end(raw: bytes, prefix: struct.Struct) -> int:
    return prefix.size + prefix.unpack_from(raw)[1]


@given(damage=_DAMAGE)
# Two header flips that used to escape untyped: an RNG state word too wide
# for PCG64 (OverflowError) and a section dtype "<f8" -> ",f8" (SyntaxError).
@example(damage=("archive", "flip_header", 9626))
@example(damage=("archive", "flip_header", 10612))
@settings(max_examples=60, deadline=None)
def test_damaged_archive_or_journal_fails_typed(journaled_bytes, damage):
    target, kind, position = damage
    files = dict(zip(("archive", "journal"), journaled_bytes))
    raw = bytearray(files[target])
    if kind == "truncate":
        del raw[position % len(raw) :]
    else:
        prefix = _V6_PREFIX if target == "archive" else _JOURNAL_PREFIX
        region = _header_end(raw, prefix) if kind == "flip_header" else len(raw)
        bit = position % (8 * region)
        raw[bit // 8] ^= 1 << (bit % 8)
    files[target] = bytes(raw)

    for mmap in (False, True):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "idx.rbq"
            path.write_bytes(files["archive"])
            default_journal_path(path).write_bytes(files["journal"])
            raised = False
            try:
                loaded = load_searcher(path, mmap=mmap, journal=True)
            except PersistenceError:
                raised = True
            else:
                try:
                    loaded.search(_QUERIES[0], K, nprobe=NPROBE)
                    loaded.search_batch(_QUERIES, K, nprobe=NPROBE)
                except PersistenceError:
                    raised = True
                finally:
                    loaded._journal.close()
                    del loaded  # drop the mapping before the directory goes
            if (target, kind) == ("archive", "truncate"):
                assert raised, f"truncation to {len(raw)} bytes went unnoticed"
