"""Persistence tests for multi-bit (``bits`` > 1) codes.

Since format v8 the archive meta records the code width ``B`` (bits per
dimension).  This suite pins the contract from the multi-bit refactor:

* round-trips are bit-identical for every supported width, through both
  materialized and memory-mapped loads, and a reloaded searcher keeps
  mutating (insert) correctly;
* the committed format-v9 fixture of ``tests/test_legacy_archives.py``
  pins a parent-written ``bits = 4`` archive;
* the ``arena_codes`` section is exactly the codes' levels packed as
  plane-major bit-planes, at every width and metric; v11 and v12 archives
  store no other code section, this build answers from it, and the
  ``uint8`` ``arena_bits`` section of v10 archives is ignored;
* a corrupted ``bits`` value in the header is rejected with
  :class:`PersistenceError`, not mis-decoded.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.core.bitops import pack_level_planes
from repro.exceptions import PersistenceError
from repro.index.rerank import NoReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.io.persistence import (
    _write_v6_archive,
    load_searcher,
    save_searcher,
)
from test_legacy_archives import _read

ALL_BITS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((600, 48))
    queries = rng.standard_normal((8, 48))
    return data, queries


def _build(data, bits):
    return IVFQuantizedSearcher(
        "rabitq", n_clusters=8, rng=np.random.default_rng(1), bits=bits
    ).fit(data)


def _rewrite_header_bits(path, bits):
    """Patch ``meta['bits']`` in a v6-container header in place."""
    raw = path.read_bytes()
    _magic, header_len = struct.unpack("<8sQ", raw[:16])
    header = json.loads(raw[16 : 16 + header_len])
    header["meta"]["bits"] = bits
    payload = json.dumps(header, sort_keys=True).encode()
    pad = header_len - len(payload)
    assert pad >= 0, "patched header no longer fits its slot"
    payload += b" " * pad
    path.write_bytes(raw[:16] + payload + raw[16 + header_len :])


class TestV8RoundTrip:
    @pytest.mark.parametrize("bits", ALL_BITS)
    @pytest.mark.parametrize("mmap", [False, True])
    def test_round_trip_bit_identical(self, corpus, tmp_path, bits, mmap):
        data, queries = corpus
        searcher = _build(data, bits)
        reference = [searcher.search(q, k=5, nprobe=4) for q in queries]
        path = tmp_path / f"s{bits}.rbq"
        save_searcher(searcher, path)
        loaded = load_searcher(path, mmap=mmap)
        assert loaded.bits == bits
        for ref, got in zip(
            reference, (loaded.search(q, k=5, nprobe=4) for q in queries)
        ):
            np.testing.assert_array_equal(ref.ids, got.ids)
            np.testing.assert_array_equal(ref.distances, got.distances)

    @pytest.mark.parametrize("bits", [1, 4])
    def test_loaded_searcher_keeps_mutating(self, corpus, tmp_path, bits):
        data, queries = corpus
        searcher = _build(data, bits)
        path = tmp_path / f"mut{bits}.rbq"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        rng = np.random.default_rng(9)
        new_ids = loaded.insert(rng.standard_normal((5, 48)))
        assert new_ids.shape == (5,)
        assert loaded.n_live == len(data) + 5
        result = loaded.search(queries[0], k=5, nprobe=8)
        assert result.ids.shape == (5,)


class TestPackedCodesSection:
    """``arena_codes`` is the arena's one resident form: v11 archives store
    only it, and every version this build reads is loaded from it."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_arena_codes_are_the_packed_levels(
        self, corpus, tmp_path, bits, metric
    ):
        data, _ = corpus
        searcher = IVFQuantizedSearcher(
            "rabitq", n_clusters=8, rng=1, bits=bits, metric=metric
        ).fit(data[:500])
        searcher.insert(data[500:])  # regions now carry capacity slack
        searcher.delete(np.arange(0, 600, 7))
        path = tmp_path / "codes.rbq"
        save_searcher(searcher, path)
        header, arrays = _read(path)
        assert header["format_version"] == 12
        assert "arena_bits" not in arrays
        codes = arrays["arena_codes"]
        assert codes.dtype == np.dtype("<u8")
        assert header["meta"]["n_words"] == codes.shape[1]
        arena = searcher.arena
        levels = np.concatenate(
            [arena.cluster_bits(cid) for cid in range(arena.n_clusters)]
        )
        np.testing.assert_array_equal(codes, pack_level_planes(levels, bits))

    @pytest.mark.parametrize("bits", [1, 4])
    def test_load_reads_packed_codes(self, corpus, tmp_path, bits):
        data, queries = corpus
        path = tmp_path / "zeroed.rbq"
        save_searcher(_build(data, bits), path)

        def raw_answers(searcher):
            searcher.reranker = NoReranker()  # the estimates themselves
            return [searcher.search(q, 5, nprobe=4) for q in queries]

        expected = raw_answers(load_searcher(path))
        header, arrays = _read(path)
        header.pop("sections")
        arrays["arena_codes"] = np.zeros_like(arrays["arena_codes"])
        _write_v6_archive(path, header, arrays)
        for mmap in (False, True):
            got = raw_answers(load_searcher(path, mmap=mmap))
            assert any(
                not np.array_equal(g.distances, w.distances)
                for g, w in zip(got, expected)
            )

    @pytest.mark.parametrize("bits", [1, 4])
    def test_v10_level_section_is_ignored(self, corpus, tmp_path, bits):
        # A v10 archive also carries the levels as ``arena_bits``; this
        # build loads it from ``arena_codes`` alone, so zeroed levels
        # change no answer.
        data, queries = corpus
        path = tmp_path / "v10.rbq"
        searcher = _build(data, bits)
        save_searcher(searcher, path)
        expected = [load_searcher(path).search(q, 5, nprobe=4) for q in queries]
        header, arrays = _read(path)
        header.pop("sections")
        header["format_version"] = 10
        # v10 stores every row of the constants' view.
        arena = searcher.arena
        arrays["arena_consts"] = np.hstack(
            [arena.cluster_consts(cid) for cid in range(arena.n_clusters)]
        )
        header["meta"]["n_consts"] = arena.n_consts
        n_rows = arrays["arena_codes"].shape[0]
        arrays["arena_bits"] = np.zeros(
            (n_rows, header["meta"]["code_length"]), dtype=np.uint8
        )
        _write_v6_archive(path, header, arrays)
        for mmap in (False, True):
            loaded = load_searcher(path, mmap=mmap)
            for query, want in zip(queries, expected):
                got = loaded.search(query, 5, nprobe=4)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.distances, want.distances)


class TestCorruption:
    def test_unsupported_bits_value_rejected(self, corpus, tmp_path):
        data, _ = corpus
        searcher = _build(data, 4)
        path = tmp_path / "corrupt.rbq"
        save_searcher(searcher, path)
        _rewrite_header_bits(path, 3)
        with pytest.raises(PersistenceError, match="unsupported code width"):
            load_searcher(path)

    def test_bits_word_count_cross_checked(self, corpus, tmp_path):
        # Declaring a different *supported* width breaks the bits-aware
        # word-count invariant, which the loader must also catch.
        data, _ = corpus
        searcher = _build(data, 4)
        path = tmp_path / "width.rbq"
        save_searcher(searcher, path)
        _rewrite_header_bits(path, 2)
        with pytest.raises(PersistenceError):
            load_searcher(path)
