"""Syscall-level fault injection for the crash-recovery suite.

The crash-safe write paths in :mod:`repro.io` route every syscall that
matters for durability — opening a file for writing/appending, writing
bytes, fsyncing a file, atomically replacing a path, fsyncing a directory
— through the seams in :mod:`repro.io._fsio`.  This module monkeypatches
those seams so a test can

* **trace** a protocol (a save, a journal append, a checkpoint/rotate)
  and enumerate every syscall event it performs, then
* **re-run** the protocol, killing it immediately before any chosen
  event (:class:`InjectedCrash`), optionally

  - tearing the crashing ``write`` in half (``partial_write=True``:
    the first half of the buffer reaches the file, the rest never does),
  - dropping every byte written since the last ``fsync`` on all files
    touched by the protocol (``lose_unsynced=True``: the power-loss
    model, where un-fsynced page cache never reaches the platter).

The result-stream gate at the bottom generalizes the archived L2 stream
gate (``tests/test_l2_stream_gate.py``): a searcher's *full* answer
stream — ids, distances and ``n_exact`` cost counters for a fixed query
batch, re-ranked and raw — is captured as plain data and compared
element-wise, so "recovered bit-identically" means exactly that.

This module is a test helper, not a test file (no ``test_`` prefix); the
crash-recovery and property suites import it directly.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.io._fsio as _fsio
from repro.index.rerank import NoReranker

#: The _fsio functions the harness replaces.
_SEAMS = ("open_write", "open_append", "fsync_file", "replace", "fsync_dir")

#: Generation tags (archive-uuid prefixes/suffixes) embedded in file names
#: differ between runs of the same protocol; normalize them out so event
#: labels line up between the trace run and the crash runs.
_HEX_TAG = re.compile(r"\b[0-9a-f]{8,32}\b")


class InjectedCrash(BaseException):
    """Simulated process death at a syscall boundary.

    Derives from :class:`BaseException` so that no library-level
    ``except Exception`` on the write path can swallow the "crash" and
    keep writing.
    """


def _label(path) -> str:
    return _HEX_TAG.sub("<gen>", Path(path).name)


class _FaultyFile:
    """Unbuffered binary file proxy reporting writes/fsyncs to the harness.

    ``synced`` tracks the durable watermark: the file size at the moment
    of the last fsync (or at open, for appends to an already-durable
    file).  Under ``lose_unsynced`` the harness truncates the file back
    to this watermark when the crash fires.
    """

    def __init__(self, fs: "FaultyFS", path, f) -> None:
        self._fs = fs
        self.path = Path(path)
        self._f = f
        self.synced = os.fstat(f.fileno()).st_size

    def write(self, data):
        return self._fs._on_write(self, data)

    def flush(self):
        self._f.flush()

    def fileno(self):
        return self._f.fileno()

    def close(self):
        if not self._f.closed:
            self._f.close()

    @property
    def closed(self):
        return self._f.closed


class FaultyFS:
    """One monkeypatched run of a write protocol.

    Parameters
    ----------
    crash_event:
        Index into the event log (as produced by a previous :func:`trace`
        of the same protocol) before which to raise
        :class:`InjectedCrash`.  ``None`` records events without crashing.
    partial_write:
        When the crash event is a ``write``, write the first half of the
        buffer before crashing (a torn write) instead of nothing.
    lose_unsynced:
        When the crash fires, truncate every file the protocol touched
        back to its last-fsync watermark — simulating the loss of page
        cache that a real power failure entails.
    """

    def __init__(
        self,
        crash_event: int | None = None,
        *,
        partial_write: bool = False,
        lose_unsynced: bool = False,
    ) -> None:
        self.crash_event = crash_event
        self.partial_write = partial_write
        self.lose_unsynced = lose_unsynced
        self.events: list[str] = []
        self.crashed = False
        self._files: list[_FaultyFile] = []
        self._orig = {name: getattr(_fsio, name) for name in _SEAMS}

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #

    def _at_crash_point(self, label: str) -> bool:
        index = len(self.events)
        self.events.append(label)
        return self.crash_event is not None and index == self.crash_event

    def _crash(self) -> None:
        self.crashed = True
        if self.lose_unsynced:
            for ff in self._files:
                try:
                    if os.path.getsize(ff.path) > ff.synced:
                        os.truncate(ff.path, ff.synced)
                except FileNotFoundError:
                    # Renamed away (tmp committed) or never created.
                    pass
        raise InjectedCrash(
            f"injected crash before event {self.crash_event}: "
            f"{self.events[-1]}"
        )

    # ------------------------------------------------------------------ #
    # Patched seams
    # ------------------------------------------------------------------ #

    def _on_open_write(self, path):
        if self._at_crash_point(f"open_write:{_label(path)}"):
            self._crash()
        ff = _FaultyFile(self, path, self._orig["open_write"](path))
        self._files.append(ff)
        return ff

    def _on_open_append(self, path):
        if self._at_crash_point(f"open_append:{_label(path)}"):
            self._crash()
        ff = _FaultyFile(self, path, self._orig["open_append"](path))
        self._files.append(ff)
        return ff

    def _on_write(self, ff: _FaultyFile, data):
        view = memoryview(data).cast("B")
        if self._at_crash_point(f"write:{_label(ff.path)}:{view.nbytes}"):
            if self.partial_write and view.nbytes > 1:
                ff._f.write(view[: view.nbytes // 2])
            self._crash()
        return ff._f.write(view)

    def _on_fsync_file(self, f):
        if isinstance(f, _FaultyFile):
            if self._at_crash_point(f"fsync:{_label(f.path)}"):
                self._crash()
            self._orig["fsync_file"](f._f)
            f.synced = os.fstat(f.fileno()).st_size
        else:  # a file opened outside the harness
            if self._at_crash_point("fsync:<external>"):
                self._crash()
            self._orig["fsync_file"](f)

    def _on_replace(self, src, dst):
        if self._at_crash_point(f"replace:{_label(src)}->{_label(dst)}"):
            self._crash()
        self._orig["replace"](src, dst)
        # Proxies for the renamed-away temp file keep pointing at the old
        # path, which no longer exists — so a later lose_unsynced
        # truncation skips them.  That is correct: the durability protocol
        # fsyncs a temp file before renaming it, so a renamed file never
        # carries unsynced bytes, and retargeting the (already-superseded)
        # temp proxy at dst would wrongly truncate appends that a *newer*
        # proxy on dst has since fsynced.

    def _on_fsync_dir(self, path):
        if self._at_crash_point(f"fsync_dir:{_label(path)}"):
            self._crash()
        self._orig["fsync_dir"](path)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    @contextmanager
    def installed(self):
        _fsio.open_write = self._on_open_write
        _fsio.open_append = self._on_open_append
        _fsio.fsync_file = self._on_fsync_file
        _fsio.replace = self._on_replace
        _fsio.fsync_dir = self._on_fsync_dir
        try:
            yield self
        finally:
            for name, fn in self._orig.items():
                setattr(_fsio, name, fn)
            # The "dead process"'s descriptors: close so the OS (and the
            # test tmpdir teardown) never sees lingering open handles.
            for ff in self._files:
                ff.close()


def trace(protocol) -> list[str]:
    """Run ``protocol`` uncrashed and return its syscall event log."""
    fs = FaultyFS()
    with fs.installed():
        protocol()
    return fs.events


def crash_at(
    protocol,
    event: int,
    *,
    partial_write: bool = False,
    lose_unsynced: bool = False,
) -> FaultyFS:
    """Run ``protocol``, killing it immediately before event ``event``.

    Returns the harness (its ``events`` log ends at the crash point).
    Raises if the protocol completed without reaching the event — that
    means the caller's event index does not belong to this protocol.
    """
    fs = FaultyFS(
        event, partial_write=partial_write, lose_unsynced=lose_unsynced
    )
    with fs.installed():
        try:
            protocol()
        except InjectedCrash:
            pass
    if not fs.crashed:
        raise AssertionError(
            f"protocol completed without reaching event {event} "
            f"(only {len(fs.events)} events: {fs.events})"
        )
    return fs


# --------------------------------------------------------------------- #
# Result-stream gate (generalizes tests/test_l2_stream_gate.py)
# --------------------------------------------------------------------- #


def result_stream(searcher, queries, *, k: int, nprobe: int) -> dict:
    """A searcher's full sequential answer stream as plain data.

    Ids, distances and the ``n_exact`` cost counter for every query, in
    order, under the searcher's own re-ranker and then *raw* (the same
    queries under ``NoReranker``, re-ranker restored).  Re-ranked
    distances are exact distances of the winners; the raw pass reports
    the estimates themselves, so the comparison covers the estimator.
    """
    queries = np.asarray(queries, dtype=np.float64)
    out = {"ids": [], "distances": [], "n_exact": []}
    original = searcher.reranker
    try:
        for reranker in (original, NoReranker()):
            searcher.reranker = reranker
            for query in queries:
                result = searcher.search(query, k, nprobe=nprobe)
                out["ids"].append([int(i) for i in result.ids])
                out["distances"].append([float(d) for d in result.distances])
                out["n_exact"].append(int(result.n_exact))
    finally:
        searcher.reranker = original
    return out


def assert_stream_equal(got: dict, want: dict, context: str = "") -> None:
    """Element-wise (bit-identical) comparison of two result streams."""
    prefix = f"{context}: " if context else ""
    assert got["n_exact"] == want["n_exact"], (
        f"{prefix}n_exact diverged: {got['n_exact']} != {want['n_exact']}"
    )
    for qi, (want_ids, want_dists) in enumerate(
        zip(want["ids"], want["distances"])
    ):
        np.testing.assert_array_equal(
            np.asarray(got["ids"][qi]),
            np.asarray(want_ids),
            err_msg=f"{prefix}ids diverged for query {qi}",
        )
        np.testing.assert_array_equal(
            np.asarray(got["distances"][qi]),
            np.asarray(want_dists),
            err_msg=f"{prefix}distances diverged for query {qi}",
        )


__all__ = [
    "InjectedCrash",
    "FaultyFS",
    "trace",
    "crash_at",
    "result_stream",
    "assert_stream_equal",
]
