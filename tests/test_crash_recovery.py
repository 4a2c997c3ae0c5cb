"""Fault-injection crash-recovery suite: every crash point recovers bit-identically.

The protocol under test is the full durable-serving write path: open an
archive with its mutation journal, apply an ``insert`` / ``delete`` /
``compact`` sequence (each journaled + fsynced), then ``save`` (which
checkpoints the archive and rotates the journal).  The harness in
``fault_injection.py`` enumerates every syscall-level event the protocol
performs and re-runs it, killing the process immediately before each one
— optionally tearing the crashing write in half, optionally dropping all
un-fsynced bytes (the power-loss model).

For **every** crash point the suite asserts, element-wise:

* ``load_searcher(path)`` (no journal) still opens and answers exactly
  as either the previous or the new archive generation — the atomic-save
  guarantee: a crashed save can never corrupt the good archive;
* ``load_searcher(path, journal=True)`` recovers a searcher whose full
  result stream — ids, distances, ``n_exact`` — is bit-identical to an
  uncrashed twin that applied the surviving mutation prefix through the
  normal API.  Which prefix survives is *derived from the event log*
  (which journal writes/fsyncs completed before the crash), never from
  the recovery machinery being tested.

The same sweep runs, in curated form, across every metric.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from fault_injection import (
    assert_stream_equal,
    crash_at,
    result_stream,
    trace,
)
from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import load_rabitq, load_searcher, save_rabitq, save_searcher

# Scenario constants: small enough that a full crash-point sweep stays
# fast, large enough that every cluster is populated and deletes span
# multiple clusters.
N, DIM, N_CLUSTERS = 160, 16, 4
N_QUERIES, K, NPROBE = 4, 4, 2
N_INSERT = 10
DELETE_IDS = list(range(0, 28, 7))

#: The mutation sequence journaled by the protocol (one record each).
N_MUTATIONS = 3

ARCHIVE = "arch.rbq"
JOURNAL_LABEL = f"{ARCHIVE}.journal"
COMMIT_LABEL = f"replace:{ARCHIVE}.tmp->{ARCHIVE}"


def _dataset():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((N, DIM))
    extra = rng.standard_normal((N_INSERT, DIM))
    queries = rng.standard_normal((N_QUERIES, DIM))
    return data, extra, queries


def _apply_mutations(searcher, extra: np.ndarray, upto: int) -> None:
    """The journaled mutation sequence, cut off after ``upto`` records."""
    if upto >= 1:
        searcher.insert(extra)
    if upto >= 2:
        searcher.delete(np.asarray(DELETE_IDS, dtype=np.int64))
    if upto >= 3:
        searcher.compact()


def _stream(searcher) -> dict:
    return result_stream(searcher, _QUERIES, k=K, nprobe=NPROBE)


_DATA, _EXTRA, _QUERIES = _dataset()


def _surviving_mutations(fs, journal_label: str, commit_label: str):
    """How many journaled mutations the crashed state retains.

    Derived purely from the event log: a record survives when its journal
    ``write`` completed before the crash — and, under the power-loss
    model, when its ``fsync`` did too.  Once the archive's atomic commit
    (rename) completed, the archive itself holds *every* mutation and the
    journal is superseded.
    """
    completed = fs.events[:-1]  # the last event is the crash point itself
    if commit_label in completed:
        return N_MUTATIONS
    if fs.lose_unsynced:
        return sum(1 for e in completed if e == f"fsync:{journal_label}")
    return sum(
        1 for e in completed if e.startswith(f"write:{journal_label}:")
    )


# --------------------------------------------------------------------- #
# Single-file archives
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def single_env(tmp_path_factory):
    """Pristine archives + uncrashed twin streams, per metric."""
    root = tmp_path_factory.mktemp("crash_single")
    cache: dict[str, tuple[Path, list[dict]]] = {}

    def get(metric: str):
        if metric not in cache:
            d = root / metric
            d.mkdir()
            searcher = IVFQuantizedSearcher(
                "rabitq",
                n_clusters=N_CLUSTERS,
                rabitq_config=RaBitQConfig(seed=5),
                rng=9,
                metric=metric,
            )
            searcher.fit(_DATA)
            pristine = d / ARCHIVE
            save_searcher(searcher, pristine)
            # Twin streams for every surviving-prefix length — a crash may
            # leave any prefix of the mutations durable: a fresh
            # materialized load plus that prefix through the normal API.
            # A load plus the same mutations gives the same index, and
            # search is a pure function of index and query, which is what
            # makes these the ground truth.
            twins = []
            for upto in range(N_MUTATIONS + 1):
                twin = load_searcher(pristine)
                _apply_mutations(twin, _EXTRA, upto)
                twins.append(_stream(twin))
            cache[metric] = (pristine, twins)
        return cache[metric]

    return get


def _single_protocol(archive: Path):
    def run():
        searcher = load_searcher(archive, journal=True)
        _apply_mutations(searcher, _EXTRA, N_MUTATIONS)
        save_searcher(searcher, archive)

    return run


def _run_single_crash(
    pristine: Path,
    twins: list[dict],
    work: Path,
    event: int,
    **crash_kw,
) -> None:
    work.mkdir()
    archive = work / ARCHIVE
    shutil.copyfile(pristine, archive)
    fs = crash_at(_single_protocol(archive), event, **crash_kw)
    context = f"event {event} ({fs.events[-1]}, {crash_kw})"

    # Atomic-save guarantee: a plain load must always see a *complete*
    # archive — the old generation before the commit rename, the new one
    # after — never a torn file.
    plain = load_searcher(archive)
    committed = COMMIT_LABEL in fs.events[:-1]
    assert_stream_equal(
        _stream(plain),
        twins[N_MUTATIONS] if committed else twins[0],
        f"{context}: plain load",
    )

    # Crash-recovery guarantee: journal replay recovers exactly the
    # mutations that were durable at the crash point.
    surviving = _surviving_mutations(fs, JOURNAL_LABEL, COMMIT_LABEL)
    recovered = load_searcher(archive, journal=True)
    assert_stream_equal(
        _stream(recovered),
        twins[surviving],
        f"{context}: recovery expected {surviving} mutations",
    )


def test_protocol_has_enough_crash_points(single_env, tmp_path):
    """The acceptance bar: >= 8 distinct syscall-level crash points."""
    pristine, _ = single_env("l2")
    archive = tmp_path / ARCHIVE
    shutil.copyfile(pristine, archive)
    events = trace(_single_protocol(archive))
    assert len(events) >= 8, events
    # ... spanning all three protocol phases:
    assert any(e.startswith(f"write:{JOURNAL_LABEL}:") for e in events)
    assert COMMIT_LABEL in events
    assert (
        f"replace:{JOURNAL_LABEL}.tmp->{JOURNAL_LABEL}" in events
    )  # the checkpoint's journal rotation


def test_every_crash_point_recovers_bit_identically(single_env, tmp_path):
    pristine, twins = single_env("l2")
    probe = tmp_path / "probe"
    probe.mkdir()
    shutil.copyfile(pristine, probe / ARCHIVE)
    events = trace(_single_protocol(probe / ARCHIVE))
    for event in range(len(events)):
        _run_single_crash(
            pristine, twins, tmp_path / f"k{event}", event
        )


def test_every_crash_point_recovers_under_power_loss(single_env, tmp_path):
    """Same sweep, but un-fsynced bytes are lost when the crash fires."""
    pristine, twins = single_env("l2")
    probe = tmp_path / "probe"
    probe.mkdir()
    shutil.copyfile(pristine, probe / ARCHIVE)
    events = trace(_single_protocol(probe / ARCHIVE))
    for event in range(len(events)):
        _run_single_crash(
            pristine,
            twins,
            tmp_path / f"k{event}",
            event,
            lose_unsynced=True,
        )


def test_torn_writes_recover_bit_identically(single_env, tmp_path):
    """Every write event, torn in half at the crash point."""
    pristine, twins = single_env("l2")
    probe = tmp_path / "probe"
    probe.mkdir()
    shutil.copyfile(pristine, probe / ARCHIVE)
    events = trace(_single_protocol(probe / ARCHIVE))
    for event, label in enumerate(events):
        if not label.startswith("write:"):
            continue
        _run_single_crash(
            pristine,
            twins,
            tmp_path / f"k{event}",
            event,
            partial_write=True,
        )


def _curated_events(events: list[str]) -> list[int]:
    """Representative crash points, one per distinct protocol phase."""
    patterns = [
        rf"^write:{re.escape(ARCHIVE)}\.tmp:",  # mid archive body
        rf"^fsync:{re.escape(ARCHIVE)}\.tmp$",  # before archive durable
        rf"^{re.escape(COMMIT_LABEL)}$",  # before the commit rename
        rf"^write:{re.escape(JOURNAL_LABEL)}:",  # mid journal record
        rf"^fsync:{re.escape(JOURNAL_LABEL)}$",  # before record durable
        rf"^replace:{re.escape(JOURNAL_LABEL)}\.tmp->",  # mid rotation
    ]
    picked: list[int] = []
    for pattern in patterns:
        matches = [i for i, e in enumerate(events) if re.search(pattern, e)]
        assert matches, f"no event matches {pattern}: {events}"
        for index in {matches[0], matches[-1]}:
            if index not in picked:
                picked.append(index)
    return sorted(picked)


@pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
def test_curated_crash_points_recover_for_each_metric(
    single_env, tmp_path, metric
):
    """Every metric, at each protocol phase."""
    pristine, twins = single_env(metric)
    probe = tmp_path / "probe"
    probe.mkdir()
    shutil.copyfile(pristine, probe / ARCHIVE)
    events = trace(_single_protocol(probe / ARCHIVE))
    for event in _curated_events(events):
        _run_single_crash(
            pristine,
            twins,
            tmp_path / f"k{event}",
            event,
            lose_unsynced=True,
        )


def test_npz_resave_crash_never_corrupts_previous_archive(tmp_path):
    """Satellite pin: the quantizer npz (``save_rabitq``) is atomic too."""
    previous = RaBitQ(RaBitQConfig(seed=5)).fit(_DATA)
    resaved = RaBitQ(RaBitQConfig(seed=6)).fit(_DATA[::2])

    def answers(archive):
        quantizer = load_rabitq(archive)
        return (
            quantizer.dataset.packed_codes,
            quantizer.estimate_distances(_QUERIES[0]).distances,
        )

    pristine = tmp_path / "quant.npz"
    save_rabitq(previous, pristine)
    save_rabitq(resaved, tmp_path / "resaved.npz")
    want = {False: answers(pristine), True: answers(tmp_path / "resaved.npz")}

    probe = tmp_path / "probe.npz"
    shutil.copyfile(pristine, probe)
    events = trace(lambda: save_rabitq(resaved, probe))
    assert events, "npz save goes through no crash-safe seam"
    for event in range(len(events)):
        work = tmp_path / f"k{event}"
        work.mkdir()
        archive = work / "quant.npz"
        shutil.copyfile(pristine, archive)
        fs = crash_at(
            lambda: save_rabitq(resaved, archive), event, lose_unsynced=True
        )
        committed = "replace:quant.npz.tmp.npz->quant.npz" in fs.events[:-1]
        for got, expected in zip(answers(archive), want[committed]):
            np.testing.assert_array_equal(
                got, expected, f"npz event {event} ({fs.events[-1]})"
            )
