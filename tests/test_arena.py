"""Unit tests for the contiguous code arena (:mod:`repro.index.arena`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitops import pack_level_planes
from repro.core.estimator import (
    build_code_consts,
    derive_code_consts,
    n_consts_for,
    n_stored_consts_for,
)
from repro.exceptions import DimensionMismatchError
from repro.index.arena import CodeArena


#: Code width of the test arenas: levels in [0, 15], four bit-planes.
BITS = 4
#: Rows of a code's view and of its stored constants (l2 at ``BITS``).
N_VIEW, N_STORED = n_consts_for("l2", BITS), n_stored_consts_for("l2", BITS)
EPS0 = 2.5


def _block(rng, n, code_length, slot_start):
    levels = rng.integers(0, 1 << BITS, size=(n, code_length)).astype(np.uint8)
    consts = rng.normal(size=(N_STORED, n))
    slots = np.arange(slot_start, slot_start + n, dtype=np.int64)
    return levels, consts, slots


def _slots(arena, cid):
    start, end = arena.cluster_range(cid)
    return arena.slots[start:end]


def _stored(arena, cid):
    """The stored constants of cluster ``cid``."""
    start, end = arena.cluster_range(cid)
    return arena.consts[:, start:end]


def _append(arena, cid, levels, consts, slots):
    """Append one block to one cluster."""
    arena.append(
        np.full(levels.shape[0], cid), pack_level_planes(levels, BITS), consts, slots
    )


@pytest.fixture()
def arena_and_blocks():
    rng = np.random.default_rng(0)
    code_length = 128
    blocks = {
        0: _block(rng, 5, code_length, 0),
        2: _block(rng, 3, code_length, 5),
    }
    arena = CodeArena.from_sections(
        code_length,
        N_VIEW,
        codes=pack_level_planes(np.concatenate([blocks[0][0], blocks[2][0]]), BITS),
        consts=np.hstack([blocks[0][1], blocks[2][1]]),
        slots=np.concatenate([blocks[0][2], blocks[2][2]]),
        sizes=np.array([5, 0, 3, 0]),
        bits=BITS,
        epsilon0=EPS0,
    )
    return arena, blocks


class TestBuildAndViews:
    def test_from_sections_layout(self, arena_and_blocks):
        arena, blocks = arena_and_blocks
        assert arena.n_clusters == 4
        assert arena.n_rows == 8
        assert list(arena.sizes) == [5, 0, 3, 0]
        for cid, (levels, consts, slots) in blocks.items():
            np.testing.assert_array_equal(arena.cluster_bits(cid), levels)
            np.testing.assert_array_equal(_stored(arena, cid), consts)
            np.testing.assert_array_equal(_slots(arena, cid), slots)

    def test_cluster_consts_is_the_derived_view(self, arena_and_blocks):
        # The stored rows plus the rows derived from them, the levels and
        # the arena's epsilon0: build_code_consts of the same codes.
        arena, blocks = arena_and_blocks
        for cid, (levels, consts, _) in blocks.items():
            want = build_code_consts(
                consts[1],
                consts[0],
                levels.sum(axis=1),
                arena.code_length,
                EPS0,
                rescales=consts[-1],
            )
            got = arena.cluster_consts(cid)
            assert got.shape == (N_VIEW, levels.shape[0])
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            rows = np.array([2, 0, 1, 4]) if cid == 0 else np.array([7, 5])
            np.testing.assert_array_equal(
                arena.consts_view(rows), want[:, rows - arena.starts[cid]]
            )

    def test_one_region_arena_without_slots(self, arena_and_blocks):
        # RaBitQ's read-only arena: row i is slot i, and no slot is stored.
        levels, consts, _ = arena_and_blocks[1][0]
        arena = CodeArena.from_sections(
            128,
            N_VIEW,
            codes=pack_level_planes(levels, BITS),
            consts=consts,
            slots=None,
            sizes=np.array([levels.shape[0]]),
            bits=BITS,
        )
        assert arena.slots.shape == (0,)
        assert arena.memory_bytes() == 5 * (8 * arena.n_words + 8 * N_STORED)
        assert arena.epsilon0 == 1.9
        np.testing.assert_array_equal(
            arena.cluster_consts(0),
            derive_code_consts(consts, arena.codes, 128, BITS, 1.9),
        )

    def test_views_are_contiguous(self, arena_and_blocks):
        arena, _ = arena_and_blocks
        start, end = arena.cluster_range(0)
        assert arena.codes[start:end].flags.c_contiguous
        assert arena.cluster_bits(0).flags.c_contiguous
        # Each constant row of a cluster slice is itself contiguous.
        assert arena.cluster_consts(0)[0].flags.c_contiguous

    def test_empty_cluster_views(self, arena_and_blocks):
        arena, _ = arena_and_blocks
        assert arena.cluster_bits(1).shape == (0, arena.code_length)
        assert arena.cluster_consts(3).shape == (arena.n_consts, 0)

    def test_memory_bytes_positive(self, arena_and_blocks):
        # Each code is stored once: its packed words (B bits per dimension),
        # stored constants and slot id.
        arena, _ = arena_and_blocks
        assert arena.n_words == BITS * 2
        assert arena.n_stored == N_STORED
        assert arena.memory_bytes() == 8 * (8 * arena.n_words + 8 * N_STORED + 8)


class TestAppend:
    def test_append_into_new_and_existing_regions(self, arena_and_blocks):
        arena, blocks = arena_and_blocks
        rng = np.random.default_rng(1)
        extra = _block(rng, 4, arena.code_length, 8)
        _append(arena, 1, *extra)
        np.testing.assert_array_equal(arena.cluster_bits(1), extra[0])
        # Existing regions are untouched by the rebuild.
        np.testing.assert_array_equal(arena.cluster_bits(0), blocks[0][0])
        np.testing.assert_array_equal(_stored(arena, 2), blocks[2][1])
        assert arena.n_rows == 12

    def test_append_order_is_preserved(self, arena_and_blocks):
        arena, blocks = arena_and_blocks
        rng = np.random.default_rng(2)
        first = _block(rng, 2, arena.code_length, 8)
        second = _block(rng, 2, arena.code_length, 10)
        _append(arena, 0, *first)
        _append(arena, 0, *second)
        np.testing.assert_array_equal(
            arena.cluster_bits(0),
            np.concatenate([blocks[0][0], first[0], second[0]]),
        )
        np.testing.assert_array_equal(
            _slots(arena, 0),
            np.concatenate([blocks[0][2], first[2], second[2]]),
        )

    def test_append_grows_capacity_with_slack(self, arena_and_blocks):
        arena, _ = arena_and_blocks
        rng = np.random.default_rng(3)
        _append(arena, 0, *_block(rng, 1, arena.code_length, 8))
        assert arena.caps[0] > arena.sizes[0]  # geometric slack
        cap_after_grow = int(arena.caps[0])
        # Appends that fit in the slack leave the layout alone.
        start_before = int(arena.starts[2])
        _append(arena, 0, *_block(rng, 1, arena.code_length, 9))
        assert int(arena.caps[0]) == cap_after_grow
        assert int(arena.starts[2]) == start_before

    def test_one_call_overflows_several_regions(self, arena_and_blocks):
        # Rows of four clusters, interleaved: every region overflows and
        # grows by the one rule, and each keeps the call's row order.
        arena, blocks = arena_and_blocks
        twin = CodeArena.from_sections(
            arena.code_length,
            arena.n_consts,
            **arena.dump_tight(),
            bits=BITS,
            epsilon0=EPS0,
        )
        rng = np.random.default_rng(6)
        levels, consts, slots = _block(rng, 7, arena.code_length, 8)
        clusters = np.array([2, 0, 1, 2, 0, 2, 3])
        arena.append(clusters, pack_level_planes(levels, BITS), consts, slots)
        assert list(arena.sizes) == [7, 1, 6, 1]
        assert list(arena.caps) == [14, 8, 12, 8]
        for cid in range(4):
            mine = clusters == cid
            old = blocks.get(cid, _block(rng, 0, arena.code_length, 0))
            np.testing.assert_array_equal(
                arena.cluster_bits(cid), np.concatenate([old[0], levels[mine]])
            )
            np.testing.assert_array_equal(
                _stored(arena, cid), np.hstack([old[1], consts[:, mine]])
            )
            np.testing.assert_array_equal(
                _slots(arena, cid), np.concatenate([old[2], slots[mine]])
            )
        # The same layout as one call per cluster.
        for cid in range(4):
            mine = clusters == cid
            _append(twin, cid, levels[mine], consts[:, mine], slots[mine])
        np.testing.assert_array_equal(twin.caps, arena.caps)
        for name, array in arena.dump_tight().items():
            np.testing.assert_array_equal(twin.dump_tight()[name], array)

    def test_append_empty_block_is_noop(self, arena_and_blocks):
        arena, _ = arena_and_blocks
        rng = np.random.default_rng(4)
        levels, consts, slots = _block(rng, 0, arena.code_length, 0)
        _append(arena, 0, levels, consts, slots)
        assert arena.n_rows == 8

    def test_append_wrong_width_rejected(self, arena_and_blocks):
        arena, _ = arena_and_blocks
        rng = np.random.default_rng(5)
        levels, consts, slots = _block(rng, 2, 64, 0)
        with pytest.raises(DimensionMismatchError):
            _append(arena, 0, levels, consts, slots)


class TestCompact:
    def test_compact_drops_and_renumbers(self, arena_and_blocks):
        arena, blocks = arena_and_blocks
        keep = np.ones(8, dtype=bool)
        keep[[1, 5, 6]] = False  # one row of cluster 0, two of cluster 2
        arena.compact(keep)
        assert list(arena.sizes) == [4, 0, 1, 0]
        remap = np.cumsum(keep) - 1
        np.testing.assert_array_equal(
            _slots(arena, 0), remap[blocks[0][2][keep[blocks[0][2]]]]
        )
        np.testing.assert_array_equal(
            arena.cluster_bits(0), blocks[0][0][keep[blocks[0][2]]]
        )
        np.testing.assert_array_equal(
            _stored(arena, 2), blocks[2][1][:, keep[blocks[2][2]]]
        )

    def test_compact_can_empty_a_cluster(self, arena_and_blocks):
        arena, _ = arena_and_blocks
        keep = np.ones(8, dtype=bool)
        keep[5:8] = False  # all of cluster 2
        arena.compact(keep)
        assert list(arena.sizes) == [5, 0, 0, 0]
        assert arena.cluster_bits(2).shape[0] == 0

    def test_compact_all_kept_preserves_contents(self, arena_and_blocks):
        arena, blocks = arena_and_blocks
        arena.compact(np.ones(8, dtype=bool))
        np.testing.assert_array_equal(arena.cluster_bits(0), blocks[0][0])
        np.testing.assert_array_equal(_slots(arena, 2), blocks[2][2])
