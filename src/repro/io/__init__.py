"""Index persistence: save and load fitted IVF searchers.

A full IVF searcher (:func:`save_searcher` / :func:`load_searcher`) is
stored with its IVF centroids/assignments, packed codes and constants, the
raw vectors for exact re-ranking and the tombstone/external-id lifecycle
state, so a restarted server resumes with bit-identical results (queries
draw no randomness: there is no generator state to carry).  The one
container (``RBQARCH6``, written as format v11, read as v9–v11) is a
memmap-able binary file: ``load_searcher(path, mmap=True)`` opens in
near-constant time with the large sections mapped zero-copy.  Retired
layouts are refused by name, with the last commit that reads them (see
:mod:`repro.io.persistence`).

Every save is crash-safe (temp file + fsync + atomic rename), and
mutations *between* saves can be made durable with the append-only
journal in :mod:`repro.io.journal`: load with ``journal=True`` to replay
and re-attach it, and every subsequent ``insert`` / ``delete`` /
``compact`` is fsynced to the journal before it returns.

Unreadable archives (missing, truncated, corrupt, wrong magic or version)
raise :class:`repro.exceptions.PersistenceError`; a journal that belongs
to a different archive generation raises the more specific
:class:`repro.exceptions.JournalError`.
"""

from repro.io.journal import (
    MutationJournal,
    read_journal,
    replay_records,
)
from repro.io.persistence import (
    default_journal_path,
    load_searcher,
    save_searcher,
)

__all__ = [
    "save_searcher",
    "load_searcher",
    "default_journal_path",
    "MutationJournal",
    "read_journal",
    "replay_records",
]
