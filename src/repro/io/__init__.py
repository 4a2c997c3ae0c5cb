"""Index persistence: save and load fitted quantizers and searchers.

Two on-disk formats:

* a bare ``metric="l2"`` RaBitQ quantizer (:func:`save_rabitq` /
  :func:`load_rabitq`) — a single ``.npz`` archive (format v4, reads v2–v4)
  with packed codes, per-vector metadata, rotation, rounding vector and
  configuration; everything Algorithm 2 needs at query time, without the
  raw vectors;
* a full IVF searcher (:func:`save_searcher` / :func:`load_searcher`) —
  additionally the IVF centroids/assignments, the raw vectors for exact
  re-ranking and the tombstone/external-id lifecycle state, so a restarted
  server resumes with bit-identical results (queries draw no randomness:
  there is no generator state to carry).
  The one container (``RBQARCH6``, written as format v10, read as v9–v10;
  v6–v8 are refused, naming ``aaf8be8``, the last commit that reads them)
  is a memmap-able binary file: ``load_searcher(path, mmap=True)`` opens
  in near-constant time with the large sections mapped zero-copy.

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
    load_rabitq,
    load_searcher,
    save_rabitq,
    save_searcher,
)

__all__ = [
    "save_rabitq",
    "load_rabitq",
    "save_searcher",
    "load_searcher",
    "default_journal_path",
    "MutationJournal",
    "read_journal",
    "replay_records",
]
