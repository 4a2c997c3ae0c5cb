"""Hypothesis property suite for the mutation journal.

The core property: for *any* interleaving of ``insert`` / ``delete`` /
``compact`` / ``save`` applied to a journal-attached searcher, reopening
the archive with ``journal=True`` after **every prefix** of the sequence
recovers a searcher that is indistinguishable from the in-memory one —
same live external ids, same tombstone count, bit-identical result
stream (re-ranked and raw estimates) — although the in-memory one has
answered reads between its mutations and the recovered one has not:
search is a pure function of (index, query).  ``save`` checkpoints the
archive and rotates the journal mid-sequence, so the property also covers
recovery spanning checkpoint boundaries.

Also pinned: the empty journal (attach, no mutations) is a no-op,
replay is idempotent — reopening the same on-disk state repeatedly
yields identical searchers, because replay never consumes or rewrites
the journal — and a torn journal header reads as no journal.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fault_injection import assert_stream_equal, result_stream
from repro.core.config import RaBitQConfig
from repro.exceptions import JournalError
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import default_journal_path, load_searcher, read_journal, save_searcher

N, DIM, N_CLUSTERS = 80, 12, 3
K, NPROBE = 3, 2

_DATA = np.random.default_rng(100).standard_normal((N, DIM))
_QUERIES = np.random.default_rng(101).standard_normal((3, DIM))


def _build_archive(directory: Path) -> Path:
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(seed=2),
        rng=4,
    )
    searcher.fit(_DATA)
    path = directory / "prop.rbq"
    save_searcher(searcher, path)
    return path


def _stream(searcher) -> dict:
    return result_stream(searcher, _QUERIES, k=K, nprobe=NPROBE)


def _assert_equivalent(recovered, live, context: str) -> None:
    np.testing.assert_array_equal(
        recovered.live_ids, live.live_ids, err_msg=f"{context}: live ids diverged"
    )
    assert recovered._n_dead == live._n_dead, f"{context}: tombstones diverged"
    assert_stream_equal(_stream(recovered), _stream(live), context)


@settings(deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["insert", "delete", "compact", "save"]),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_replay_after_every_prefix_matches_in_memory(ops, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _build_archive(Path(tmp))
        live = load_searcher(path, journal=True)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), "seed"))
        for step, op in enumerate(ops):
            if op == "insert":
                n_new = data.draw(st.integers(1, 8), f"n_new[{step}]")
                live.insert(rng.standard_normal((n_new, DIM)))
            elif op == "delete":
                alive = live.live_ids
                if alive.shape[0] == 0:
                    continue
                n_del = data.draw(
                    st.integers(1, min(10, alive.shape[0])), f"n_del[{step}]"
                )
                live.delete(rng.choice(alive, size=n_del, replace=False))
            elif op == "compact":
                live.compact()
            else:
                save_searcher(live, path)
            # Reads interleave with the mutations on the live side only.
            for query in rng.standard_normal((2, DIM)):
                live.search(query, K, nprobe=NPROBE)
            # The crash-recovery contract, checked at every prefix: a
            # fresh process opening the archive + journal sees exactly
            # the in-memory searcher.
            recovered = load_searcher(path, journal=True)
            _assert_equivalent(
                recovered, live, f"step {step} ({op}, ops={ops})"
            )


def test_empty_journal_attach_is_a_noop(tmp_path):
    path = _build_archive(tmp_path)
    baseline = _stream(load_searcher(path))
    attached = load_searcher(path, journal=True)
    journal = read_journal(default_journal_path(path))
    assert journal is not None
    assert journal.records == []
    assert not journal.truncated
    assert_stream_equal(_stream(attached), baseline, "empty journal attach")


def test_replay_is_idempotent(tmp_path):
    """Reopening the same archive+journal state yields identical searchers."""
    path = _build_archive(tmp_path)
    live = load_searcher(path, journal=True)
    rng = np.random.default_rng(7)
    live.insert(rng.standard_normal((6, DIM)))
    live.delete(live.live_ids[:4])

    before = read_journal(default_journal_path(path))
    streams = [_stream(load_searcher(path, journal=True)) for _ in range(3)]
    after = read_journal(default_journal_path(path))

    # Replay consumed nothing: same records, same byte length.
    assert after.valid_length == before.valid_length
    assert len(after.records) == len(before.records) == 2
    assert_stream_equal(streams[1], streams[0], "second replay")
    assert_stream_equal(streams[2], streams[0], "third replay")
    _assert_equivalent(load_searcher(path, journal=True), live, "vs live")


def test_torn_journal_header_reads_as_no_journal(tmp_path):
    """A crash while creating the journal leaves a prefix of its header:
    the magic cut anywhere, or the magic plus part of the length field
    (9, 10 or 11 bytes).  Every such prefix reads as no journal, and the
    archive loads with a fresh one; a foreign file of the same sizes is
    still refused."""
    path = _build_archive(tmp_path)
    journal_path = default_journal_path(path)
    load_searcher(path, journal=True)  # creates the journal header
    header = journal_path.read_bytes()
    for n_bytes in (0, 3, 8, 9, 10, 11):
        journal_path.write_bytes(header[:n_bytes])
        assert read_journal(journal_path) is None, n_bytes
        attached = load_searcher(path, journal=True)
        assert attached.n_live == N
        assert read_journal(journal_path).records == []
        foreign = b"NOTAJRNL"[: max(n_bytes, 1)] + header[8:n_bytes]
        journal_path.write_bytes(foreign)
        with pytest.raises(JournalError, match="not a mutation journal"):
            read_journal(journal_path)
