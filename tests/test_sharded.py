"""Tests for the sharded, thread-parallel serving engine.

The central guarantee: :class:`repro.index.sharded.ShardedSearcher` results
are a pure deterministic function of the per-shard states — running the
shards in a thread pool, serially in the calling thread, or as standalone
:class:`IVFQuantizedSearcher` instances merged by hand with the stable
top-k rule yields bit-identical ids, distances and cost counters, at every
point of the fit → insert → delete → compact → save → load lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RaBitQConfig
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
    PersistenceError,
)
from repro.index.searcher import IVFQuantizedSearcher
from repro.index.sharded import ShardedSearcher
from repro.io.persistence import (
    load_searcher,
    load_sharded_searcher,
    save_sharded_searcher,
)
from repro.substrates.linalg import stable_topk_indices
from repro.substrates.rng import spawn_rngs

N_SHARDS = 3
SEED = 11


@pytest.fixture(scope="module")
def sharded_data():
    rng = np.random.default_rng(42)
    return rng.standard_normal((360, 12)), rng.standard_normal((16, 12))


def _build(data, *, n_shards=N_SHARDS, n_threads=None, assignment="round_robin",
           threshold=0.25):
    return ShardedSearcher(
        n_shards,
        n_threads=n_threads,
        assignment=assignment,
        n_clusters=5,
        rabitq_config=RaBitQConfig(seed=0),
        rng=SEED,
        compact_threshold=threshold,
    ).fit(data)


def _assert_result_equal(got, want):
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)
    assert got.n_candidates == want.n_candidates
    assert got.n_exact == want.n_exact


def _assert_batch_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        _assert_result_equal(a, b)


def _mutate(searcher, rng):
    """The shared lifecycle schedule applied to equivalence twins."""
    searcher.insert(rng.standard_normal((25, 12)))
    searcher.delete(searcher.live_ids[::6])
    searcher.compact()


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ShardedSearcher(0)
        with pytest.raises(InvalidParameterError):
            ShardedSearcher(2, assignment="range")
        with pytest.raises(InvalidParameterError):
            ShardedSearcher(2, n_threads=-1)

    def test_not_fitted(self):
        sharded = ShardedSearcher(2)
        with pytest.raises(NotFittedError):
            sharded.search(np.zeros(4), 1)
        with pytest.raises(NotFittedError):
            sharded.search_batch(np.zeros((1, 4)), 1)
        with pytest.raises(NotFittedError):
            sharded.insert(np.zeros((1, 4)))
        with pytest.raises(NotFittedError):
            save_sharded_searcher(sharded, "unused")

    def test_too_few_vectors(self):
        with pytest.raises(InvalidParameterError):
            ShardedSearcher(8).fit(np.random.default_rng(0).standard_normal((3, 4)))

    def test_round_robin_balances_shards(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data)
        sizes = [shard.n_live for shard in sharded.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == data.shape[0]

    def test_hash_assignment_covers_all_shards(self, sharded_data):
        data, queries = sharded_data
        sharded = _build(data, assignment="hash")
        assert all(shard.n_live > 0 for shard in sharded.shards)
        result = sharded.search(queries[0], 5, nprobe=3)
        assert result.ids.shape[0] == 5

    def test_global_ids_are_positional_after_fit(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data)
        np.testing.assert_array_equal(
            sharded.live_ids, np.arange(data.shape[0])
        )


class TestMergedEquivalence:
    """Sharded results == hand-merged standalone searchers, bit for bit."""

    def _manual_reference(self, data):
        """Standalone searchers equivalently stocked to ``_build``'s shards."""
        shard_rngs = spawn_rngs(np.random.default_rng(SEED), N_SHARDS)
        shards, l2g = [], []
        positions = np.arange(data.shape[0], dtype=np.int64)
        for s in range(N_SHARDS):
            rows = positions[positions % N_SHARDS == s]
            shards.append(
                IVFQuantizedSearcher(
                    "rabitq",
                    n_clusters=5,
                    rabitq_config=RaBitQConfig(seed=0),
                    rng=shard_rngs[s],
                ).fit(data[rows])
            )
            l2g.append(rows)
        return shards, l2g

    def _manual_merge(self, k, shard_results, l2g):
        gids = np.concatenate(
            [l2g[s][r.ids] for s, r in enumerate(shard_results)]
        )
        dists = np.concatenate([r.distances for r in shard_results])
        order = stable_topk_indices(dists, min(k, gids.shape[0]))
        return gids[order], dists[order]

    def test_search_matches_manual_merge(self, sharded_data):
        data, queries = sharded_data
        sharded = _build(data, n_threads=N_SHARDS)
        shards, l2g = self._manual_reference(data)
        for query in queries:
            got = sharded.search(query, 7, nprobe=3)
            per_shard = [s.search(query, 7, nprobe=3) for s in shards]
            want_ids, want_dists = self._manual_merge(7, per_shard, l2g)
            np.testing.assert_array_equal(got.ids, want_ids)
            np.testing.assert_array_equal(got.distances, want_dists)
            assert got.n_candidates == sum(r.n_candidates for r in per_shard)
            assert got.n_exact == sum(r.n_exact for r in per_shard)

    def test_parallel_equals_serial(self, sharded_data):
        data, queries = sharded_data
        parallel = _build(data, n_threads=N_SHARDS)
        serial = _build(data, n_threads=0)
        _assert_batch_equal(
            parallel.search_batch(queries, 9, nprobe=3),
            serial.search_batch(queries, 9, nprobe=3),
        )
        parallel.close()

    def test_batch_equals_sequential(self, sharded_data):
        data, queries = sharded_data
        batch = _build(data, n_threads=N_SHARDS)
        seq = _build(data, n_threads=N_SHARDS)
        expected = [seq.search(q, 6, nprobe=3) for q in queries]
        _assert_batch_equal(batch.search_batch(queries, 6, nprobe=3), expected)

    def test_equivalence_across_full_lifecycle(self, sharded_data, tmp_path):
        # fit -> insert -> delete -> compact -> save -> load, with the
        # parallel and serial engines checked at every stage.
        data, queries = sharded_data
        parallel = _build(data, n_threads=N_SHARDS, threshold=None)
        serial = _build(data, n_threads=0, threshold=None)
        for stage in range(3):
            rng_a = np.random.default_rng(100 + stage)
            rng_b = np.random.default_rng(100 + stage)
            _mutate(parallel, rng_a)
            _mutate(serial, rng_b)
            _assert_batch_equal(
                parallel.search_batch(queries, 8, nprobe=3),
                serial.search_batch(queries, 8, nprobe=3),
            )
        save_sharded_searcher(parallel, tmp_path / "idx")
        reloaded = load_sharded_searcher(tmp_path / "idx")
        flattened = load_sharded_searcher(tmp_path / "idx", n_threads=0)
        # The saved searcher consumed its streams in the lifecycle loop
        # above; both reloads resume from the identical stream state.
        want = reloaded.search_batch(queries, 8, nprobe=3)
        _assert_batch_equal(flattened.search_batch(queries, 8, nprobe=3), want)
        parallel.close()

    def test_single_shard_equals_plain_searcher(self, sharded_data):
        # One shard degenerates to the plain searcher plus global-id
        # bookkeeping: results must match a standalone searcher built with
        # the shard's exact generator.
        data, queries = sharded_data
        sharded = ShardedSearcher(
            1, n_clusters=5, rabitq_config=RaBitQConfig(seed=0), rng=SEED
        ).fit(data)
        plain = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=5,
            rabitq_config=RaBitQConfig(seed=0),
            rng=spawn_rngs(np.random.default_rng(SEED), 1)[0],
        ).fit(data)
        for query in queries[:6]:
            _assert_result_equal(
                sharded.search(query, 5, nprobe=4),
                plain.search(query, 5, nprobe=4),
            )


class TestLifecycle:
    def test_insert_returns_fresh_global_ids(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data)
        rng = np.random.default_rng(1)
        first = sharded.insert(rng.standard_normal((7, 12)))
        np.testing.assert_array_equal(
            first, np.arange(data.shape[0], data.shape[0] + 7)
        )
        second = sharded.insert(rng.standard_normal((3, 12)))
        assert second.min() > first.max()
        assert sharded.n_live == data.shape[0] + 10

    def test_insert_explicit_ids_and_collisions(self, sharded_data):
        data, queries = sharded_data
        sharded = _build(data)
        rng = np.random.default_rng(2)
        gids = sharded.insert(
            rng.standard_normal((3, 12)), ids=[5000, 6000, 7000]
        )
        np.testing.assert_array_equal(gids, [5000, 6000, 7000])
        with pytest.raises(InvalidParameterError):
            sharded.insert(rng.standard_normal((1, 12)), ids=[6000])
        with pytest.raises(InvalidParameterError):
            sharded.insert(rng.standard_normal((2, 12)), ids=[8000, 8000])
        with pytest.raises(InvalidParameterError):
            sharded.insert(rng.standard_normal((2, 12)), ids=[8000])
        with pytest.raises(DimensionMismatchError):
            sharded.insert(rng.standard_normal((2, 13)))
        # Failed inserts must leave the index unchanged.
        assert sharded.n_live == data.shape[0] + 3
        result = sharded.search(queries[0], 5, nprobe=3)
        assert result.ids.shape[0] == 5

    def test_inserted_vectors_are_findable_by_global_id(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data)
        rng = np.random.default_rng(3)
        new = rng.standard_normal((5, 12))
        gids = sharded.insert(new)
        for gid, vec in zip(gids, new):
            result = sharded.search(vec, 1, nprobe=5)
            assert result.ids[0] == gid
            assert result.distances[0] == 0.0

    def test_delete_routes_and_validates(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data, threshold=None)
        n = data.shape[0]
        removed = sharded.delete([0, 1, 2, n - 1])
        assert removed == 4
        assert sharded.n_deleted == 4
        with pytest.raises(InvalidParameterError):
            sharded.delete([0])  # already deleted
        with pytest.raises(InvalidParameterError):
            sharded.delete([999_999])
        # Validation precedes mutation: a batch with one bad id is atomic.
        before = sharded.n_deleted
        with pytest.raises(InvalidParameterError):
            sharded.delete([3, 999_999])
        assert sharded.n_deleted == before
        assert 3 in sharded.live_ids

    def test_deleted_ids_never_returned(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data, threshold=None)
        target = data[10]
        assert sharded.search(target, 1, nprobe=5).ids[0] == 10
        sharded.delete([10])
        assert 10 not in sharded.search(target, 20, nprobe=5).ids
        sharded.compact()
        assert 10 not in sharded.search(target, 20, nprobe=5).ids

    def test_compact_preserves_results(self, sharded_data):
        data, queries = sharded_data
        kept = _build(data, threshold=None)
        compacted = _build(data, threshold=None)
        victims = kept.live_ids[::4]
        kept.delete(victims)
        compacted.delete(victims)
        compacted.compact()
        assert compacted.n_deleted == 0
        _assert_batch_equal(
            compacted.search_batch(queries, 6, nprobe=3),
            kept.search_batch(queries, 6, nprobe=3),
        )

    def test_shard_of_tracks_routing(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data)
        gid = int(sharded.insert(np.random.default_rng(4).standard_normal((1, 12)))[0])
        shard = sharded.shard_of(gid)
        assert 0 <= shard < N_SHARDS
        sharded.delete([gid])
        with pytest.raises(InvalidParameterError):
            sharded.shard_of(gid)


class TestDegenerateShapes:
    """Degenerate query shapes return correctly shaped, ordered results."""

    def test_k_exceeds_n_live(self, sharded_data):
        data, queries = sharded_data
        seq = _build(data, n_threads=0)
        bat = _build(data, n_threads=N_SHARDS)
        expected = [seq.search(q, 10_000, nprobe=3) for q in queries]
        got = bat.search_batch(queries, 10_000, nprobe=3)
        _assert_batch_equal(got, expected)
        for result in got:
            assert result.ids.shape[0] <= bat.n_live
            assert np.all(np.diff(result.distances) >= 0)

    def test_nprobe_exceeds_clusters(self, sharded_data):
        data, queries = sharded_data
        seq = _build(data, n_threads=0)
        bat = _build(data, n_threads=N_SHARDS)
        expected = [seq.search(q, 5, nprobe=400) for q in queries]
        _assert_batch_equal(bat.search_batch(queries, 5, nprobe=400), expected)

    def test_fully_deleted_shard(self, sharded_data):
        # Deleting every vector of one shard must leave searches well
        # formed (that shard contributes zero candidates).
        data, queries = sharded_data
        seq = _build(data, n_threads=0, threshold=None)
        bat = _build(data, n_threads=N_SHARDS, threshold=None)
        victim_gids = np.arange(data.shape[0])[::N_SHARDS]  # shard 0
        seq.delete(victim_gids)
        bat.delete(victim_gids)
        assert seq.shards[0].n_live == 0
        expected = [seq.search(q, 8, nprobe=3) for q in queries]
        got = bat.search_batch(queries, 8, nprobe=3)
        _assert_batch_equal(got, expected)
        shard0_gids = set(victim_gids.tolist())
        for result in got:
            assert not shard0_gids & set(result.ids.tolist())

    def test_everything_deleted(self, sharded_data):
        data, queries = sharded_data
        seq = _build(data, n_threads=0, threshold=None)
        bat = _build(data, n_threads=N_SHARDS, threshold=None)
        seq.delete(seq.live_ids)
        bat.delete(bat.live_ids)
        expected = [seq.search(q, 5, nprobe=3) for q in queries]
        got = bat.search_batch(queries, 5, nprobe=3)
        _assert_batch_equal(got, expected)
        for result in got:
            assert result.ids.shape[0] == 0
            assert result.distances.shape[0] == 0

    def test_empty_batch_and_empty_insert(self, sharded_data):
        data, _ = sharded_data
        sharded = _build(data)
        result = sharded.search_batch(np.empty((0, 12)), 5, nprobe=3)
        assert len(result) == 0
        assert sharded.insert(np.empty((0, 12))).shape[0] == 0

    def test_invalid_k_rejected(self, sharded_data):
        data, queries = sharded_data
        sharded = _build(data)
        with pytest.raises(InvalidParameterError):
            sharded.search(queries[0], 0)
        with pytest.raises(InvalidParameterError):
            sharded.search_batch(queries, -1)


class TestShardedPersistence:
    def test_round_trip_bit_identical(self, sharded_data, tmp_path):
        data, queries = sharded_data
        # Two identical twins: one is saved/loaded, the other keeps
        # running — both must answer identically afterwards.
        saved = _build(data, threshold=None)
        live = _build(data, threshold=None)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        _mutate(saved, rng_a)
        _mutate(live, rng_b)
        save_sharded_searcher(saved, tmp_path / "idx")
        reloaded = load_sharded_searcher(tmp_path / "idx")
        _assert_batch_equal(
            reloaded.search_batch(queries, 7, nprobe=3),
            live.search_batch(queries, 7, nprobe=3),
        )
        # ... and the lifecycle continues on the reloaded instance.
        more = np.random.default_rng(8).standard_normal((4, 12))
        gids_live = live.insert(more.copy())
        gids_reloaded = reloaded.insert(more.copy())
        np.testing.assert_array_equal(gids_live, gids_reloaded)
        _assert_batch_equal(
            reloaded.search_batch(queries, 7, nprobe=3),
            live.search_batch(queries, 7, nprobe=3),
        )

    def test_manifest_metadata_round_trips(self, sharded_data, tmp_path):
        data, _ = sharded_data
        sharded = _build(data, assignment="hash")
        save_sharded_searcher(sharded, tmp_path / "idx")
        reloaded = load_sharded_searcher(tmp_path / "idx")
        assert reloaded.assignment == "hash"
        assert reloaded.n_shards == N_SHARDS
        assert reloaded._next_gid == sharded._next_gid
        np.testing.assert_array_equal(reloaded.live_ids, sharded.live_ids)

    def test_shard_files_individually_loadable(self, sharded_data, tmp_path):
        # Shard file names are generation-tagged (v2 layout); the manifest
        # is the authoritative list.
        import json

        data, _ = sharded_data
        sharded = _build(data)
        save_sharded_searcher(sharded, tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert len(manifest["shard_files"]) == N_SHARDS
        for s, name in enumerate(manifest["shard_files"]):
            shard = load_searcher(tmp_path / "idx" / name)
            assert shard.n_live == sharded.shards[s].n_live

    def test_resave_with_fewer_shards_drops_stale_files(self, sharded_data, tmp_path):
        # Re-saving a smaller topology into the same directory must not
        # leave the larger topology's shard files behind (they are
        # documented as individually loadable, so stale ones would
        # silently serve the old index).
        import json

        data, queries = sharded_data
        save_sharded_searcher(_build(data, n_shards=4), tmp_path / "idx")
        assert len(list((tmp_path / "idx").glob("shard_0003-*.rbq"))) == 1
        two = _build(data, n_shards=2)
        save_sharded_searcher(two, tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        names = sorted(p.name for p in (tmp_path / "idx").iterdir())
        assert names == sorted(
            ["manifest.json", manifest["idmap_file"]]
            + manifest["shard_files"]
        )
        assert len(manifest["shard_files"]) == 2
        reloaded = load_sharded_searcher(tmp_path / "idx")
        assert reloaded.n_shards == 2
        _assert_batch_equal(
            reloaded.search_batch(queries, 5, nprobe=3),
            two.search_batch(queries, 5, nprobe=3),
        )

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_sharded_searcher(tmp_path / "nope")

    def test_corrupt_manifest_raises(self, sharded_data, tmp_path):
        data, _ = sharded_data
        save_sharded_searcher(_build(data), tmp_path / "idx")
        (tmp_path / "idx" / "manifest.json").write_text("{broken")
        with pytest.raises(PersistenceError):
            load_sharded_searcher(tmp_path / "idx")

    def test_wrong_magic_raises(self, sharded_data, tmp_path):
        data, _ = sharded_data
        save_sharded_searcher(_build(data), tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            "rabitq/sharded", "rabitq/other"
        ))
        with pytest.raises(PersistenceError):
            load_sharded_searcher(tmp_path / "idx")

    def test_unsupported_version_raises(self, sharded_data, tmp_path):
        data, _ = sharded_data
        save_sharded_searcher(_build(data), tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        import json

        contents = json.loads(manifest.read_text())
        assert contents["format_version"] == 2
        contents["format_version"] = 99
        manifest.write_text(json.dumps(contents))
        with pytest.raises(PersistenceError):
            load_sharded_searcher(tmp_path / "idx")

    def test_missing_shard_file_raises(self, sharded_data, tmp_path):
        data, _ = sharded_data
        import json

        save_sharded_searcher(_build(data), tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        (tmp_path / "idx" / manifest["shard_files"][1]).unlink()
        with pytest.raises(PersistenceError):
            load_sharded_searcher(tmp_path / "idx")

    def test_missing_idmap_raises(self, sharded_data, tmp_path):
        data, _ = sharded_data
        import json

        save_sharded_searcher(_build(data), tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        (tmp_path / "idx" / manifest["idmap_file"]).unlink()
        with pytest.raises(PersistenceError):
            load_sharded_searcher(tmp_path / "idx")
