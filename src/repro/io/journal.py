"""Append-only mutation journal for searcher archives.

A saved archive captures the index at one instant; every ``insert`` /
``delete`` / ``compact`` after the save would be lost by a crash.  The
journal closes that window: a searcher with an attached
:class:`MutationJournal` appends one checksummed, length-prefixed record
per mutation (fsynced before the mutating call returns), and
:func:`repro.io.load_searcher` replays the journal on open — so the
recovered searcher is bit-identical to the crashed one as of its last
completed mutation.

On-disk layout (all integers little-endian)::

    header:  8s  magic  b"RBQJRNL1"
             u32 header_len
             header_len bytes of JSON:
                 {"archive_uuid": ..., "kind": "searcher"}
    record:  u32 payload_len
             u32 crc32(payload)
             payload_len bytes of payload
    payload: u32 meta_len
             meta_len bytes of JSON:
                 {"op": ..., "arrays": [{"name", "dtype", "shape"}, ...]}
             the arrays' raw bytes, concatenated in ``arrays`` order

``archive_uuid`` binds the journal to exactly one archive generation:
replaying a journal against any other archive would apply another index's
mutations, so the loader refuses (:class:`repro.exceptions.JournalError`)
unless the journal matches the archive — or matches the archive's
*parent* UUID, which identifies a journal made obsolete by a completed
save whose crash landed between the archive rename and the journal
rotation (those are discarded, not replayed).

Torn tails — a crash mid-append leaves a final record with a short or
checksum-failing body — are truncated on read, never raised: the journal
recovers to its longest valid prefix.  A torn *header* (file shorter than
the header it declares) means the crash hit journal creation itself; the
file carries no records by construction and is treated as absent.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.exceptions import JournalError, PersistenceError
from repro.io import _fsio

PathLike = Union[str, os.PathLike]

#: First 8 bytes of every journal file.
JOURNAL_MAGIC = b"RBQJRNL1"

_HEADER_PREFIX = struct.Struct("<8sI")
_RECORD_PREFIX = struct.Struct("<II")
_META_PREFIX = struct.Struct("<I")

#: Upper bound on a declared header/metadata length; anything larger is
#: corruption, not a plausible journal (guards against multi-GB allocs
#: from a garbage length field).
_MAX_JSON_LEN = 64 * 1024 * 1024


@dataclass
class JournalRecord:
    """One decoded mutation: the operation name and its array payload."""

    op: str
    arrays: dict[str, np.ndarray]


@dataclass
class JournalContents:
    """Everything :func:`read_journal` recovers from a journal file."""

    archive_uuid: str
    kind: str
    records: list[JournalRecord]
    #: Byte offset of the end of the last *valid* record (the length the
    #: file should be truncated to before further appends).
    valid_length: int
    #: Whether a torn tail record was dropped.
    truncated: bool


def _encode_record(op: str, arrays: dict[str, np.ndarray]) -> bytes:
    descriptors = []
    blobs = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        descriptors.append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
            }
        )
        blobs.append(contiguous.tobytes())
    meta = json.dumps({"op": op, "arrays": descriptors}).encode("utf-8")
    payload = _META_PREFIX.pack(len(meta)) + meta + b"".join(blobs)
    return (
        _RECORD_PREFIX.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        + payload
    )


def _decode_payload(payload: bytes) -> JournalRecord:
    if len(payload) < _META_PREFIX.size:
        raise ValueError("payload shorter than its metadata prefix")
    (meta_len,) = _META_PREFIX.unpack_from(payload)
    if meta_len > _MAX_JSON_LEN or _META_PREFIX.size + meta_len > len(payload):
        raise ValueError("payload metadata length out of range")
    meta = json.loads(
        payload[_META_PREFIX.size : _META_PREFIX.size + meta_len].decode(
            "utf-8"
        )
    )
    op = str(meta["op"])
    arrays: dict[str, np.ndarray] = {}
    offset = _META_PREFIX.size + meta_len
    for desc in meta["arrays"]:
        dtype = np.dtype(str(desc["dtype"]))
        shape = tuple(int(s) for s in desc["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if offset + nbytes > len(payload):
            raise ValueError("payload shorter than its declared arrays")
        arrays[str(desc["name"])] = np.frombuffer(
            payload, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
            offset=offset,
        ).reshape(shape)
        offset += nbytes
    if offset != len(payload):
        raise ValueError("payload longer than its declared arrays")
    return JournalRecord(op=op, arrays=arrays)


def _header_bytes(archive_uuid: str, kind: str) -> bytes:
    header = json.dumps(
        {"archive_uuid": archive_uuid, "kind": kind}, sort_keys=True
    ).encode("utf-8")
    return _HEADER_PREFIX.pack(JOURNAL_MAGIC, len(header)) + header


def read_journal(path: PathLike) -> JournalContents | None:
    """Decode a journal file, truncating (not raising) a torn tail.

    Returns ``None`` when the file does not exist *or* is a torn header —
    a crash during journal creation, before any record could exist.

    Raises
    ------
    JournalError
        If the file exists but is not a journal (wrong magic) or its
        fully-written header is unreadable.
    """
    journal_path = Path(path)
    try:
        raw = journal_path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise JournalError(
            f"cannot read journal {journal_path!s}: {exc}"
        ) from exc
    if len(raw) < _HEADER_PREFIX.size:
        if raw[: len(JOURNAL_MAGIC)] == JOURNAL_MAGIC[: len(raw)]:
            return None  # torn creation: no complete header prefix
        raise JournalError(
            f"{journal_path!s} is not a mutation journal (bad magic)"
        )
    magic, header_len = _HEADER_PREFIX.unpack_from(raw)
    if magic != JOURNAL_MAGIC:
        raise JournalError(
            f"{journal_path!s} is not a mutation journal "
            f"(magic {magic!r}, expected {JOURNAL_MAGIC!r})"
        )
    if header_len > _MAX_JSON_LEN:
        raise JournalError(
            f"journal {journal_path!s} declares an implausible header "
            f"length ({header_len} bytes)"
        )
    header_end = _HEADER_PREFIX.size + header_len
    if len(raw) < header_end:
        return None  # torn creation: header never fully reached the disk
    try:
        header = json.loads(raw[_HEADER_PREFIX.size : header_end])
        archive_uuid = str(header["archive_uuid"])
        kind = str(header["kind"])
    except (ValueError, KeyError, TypeError) as exc:
        raise JournalError(
            f"journal {journal_path!s} has a corrupt header ({exc})"
        ) from exc

    records: list[JournalRecord] = []
    offset = header_end
    truncated = False
    while offset < len(raw):
        if offset + _RECORD_PREFIX.size > len(raw):
            truncated = True
            break
        payload_len, crc = _RECORD_PREFIX.unpack_from(raw, offset)
        body_start = offset + _RECORD_PREFIX.size
        body_end = body_start + payload_len
        if payload_len > len(raw) or body_end > len(raw):
            truncated = True
            break
        payload = raw[body_start:body_end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            truncated = True
            break
        try:
            records.append(_decode_payload(payload))
        except (ValueError, KeyError, TypeError):
            # A checksum-valid but undecodable record is corruption past
            # the checksum; everything after it is unusable too.
            truncated = True
            break
        offset = body_end
    return JournalContents(
        archive_uuid=archive_uuid,
        kind=kind,
        records=records,
        valid_length=offset,
        truncated=truncated,
    )


class MutationJournal:
    """Append handle for the mutation journal next to an archive.

    Create with :meth:`MutationJournal.create` (fresh journal, crash-safe
    temp-write + rename) or :meth:`MutationJournal.resume` (continue an
    existing journal after replay).  Attach to a searcher by assigning to
    its ``_journal`` slot — the mutation methods append one record per
    completed mutation and fsync before returning.
    """

    def __init__(
        self, path: Path, archive_uuid: str, kind: str, file
    ) -> None:
        self.path = path
        self.archive_uuid = archive_uuid
        self.kind = kind
        self._file = file
        self._suspended = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls, path: PathLike, archive_uuid: str, kind: str = "searcher"
    ) -> "MutationJournal":
        """Write a fresh (empty) journal for ``archive_uuid`` at ``path``.

        The header is written to a temporary file, fsynced, and renamed
        over ``path`` — a crash mid-creation leaves either the previous
        journal or a torn temp file, never a half-written journal under
        the final name.
        """
        journal_path = Path(path)
        tmp = journal_path.with_name(journal_path.name + ".tmp")
        f = _fsio.open_write(tmp)
        try:
            f.write(_header_bytes(archive_uuid, kind))
            _fsio.fsync_file(f)
        finally:
            f.close()
        _fsio.replace(tmp, journal_path)
        _fsio.fsync_dir(journal_path.parent)
        return cls(
            journal_path, archive_uuid, kind, _fsio.open_append(journal_path)
        )

    @classmethod
    def resume(
        cls, path: PathLike, contents: JournalContents
    ) -> "MutationJournal":
        """Reopen an existing journal for appending after a replay.

        If :func:`read_journal` dropped a torn tail, the file is truncated
        to its last valid record first, so new appends start on a clean
        boundary.
        """
        journal_path = Path(path)
        if contents.truncated:
            os.truncate(journal_path, contents.valid_length)
        return cls(
            journal_path,
            contents.archive_uuid,
            contents.kind,
            _fsio.open_append(journal_path),
        )

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def suspend(self) -> "_SuspendScope":
        """Context manager silencing :meth:`record` inside the block.

        Used for nested mutations that a replayed record already implies —
        the auto-compaction a ``delete`` triggers replays from the delete
        record itself, so journaling it too would be redundant.
        """
        return _SuspendScope(self)

    def record(self, op: str, **arrays: np.ndarray) -> None:
        """Append one mutation record and fsync it to stable storage."""
        if self._suspended:
            return
        if self._file is None:
            raise JournalError(
                f"journal {self.path!s} is closed; cannot record {op!r}"
            )
        self._file.write(_encode_record(op, arrays))
        _fsio.fsync_file(self._file)

    # ------------------------------------------------------------------ #
    # Rotation / shutdown
    # ------------------------------------------------------------------ #

    def rotate(self, path: PathLike, archive_uuid: str) -> None:
        """Start a fresh journal for a newly-saved archive generation.

        Called after a successful save: the archive now contains every
        journaled mutation, so the old records are obsolete.  The new
        (empty) journal is written with the same temp-write + rename
        protocol as :meth:`create`; a crash before the rename leaves the
        old journal in place, which the next load recognizes by its
        ``archive_uuid`` matching the new archive's *parent* and discards.
        """
        self.close()
        fresh = MutationJournal.create(path, archive_uuid, self.kind)
        self.path = fresh.path
        self.archive_uuid = fresh.archive_uuid
        self._file = fresh._file

    def close(self) -> None:
        """Close the append handle (records already written stay valid)."""
        if self._file is not None:
            self._file.close()
            self._file = None


class _SuspendScope:
    def __init__(self, journal: MutationJournal) -> None:
        self._journal = journal

    def __enter__(self) -> "_SuspendScope":
        self._journal._suspended += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._journal._suspended -= 1


def replay_records(searcher, records: list[JournalRecord]) -> int:
    """Apply journal records to a freshly-loaded searcher, in order.

    Insert records carry the resolved external ids, so replay never
    re-derives id assignment.  The searcher must not have a journal
    attached yet — replay is the *source* of the journal's records, so
    re-recording them would duplicate the file.

    Returns the number of records applied.  Malformed records (unknown
    op, missing arrays) raise :class:`PersistenceError`: they indicate a
    journal written by an incompatible build, not a torn tail.
    """
    for position, rec in enumerate(records):
        try:
            if rec.op == "insert":
                vectors = np.asarray(rec.arrays["vectors"], dtype=np.float64)
                ids = np.asarray(rec.arrays["ids"], dtype=np.int64)
                searcher.insert(vectors, ids)
            elif rec.op == "delete":
                ids = np.asarray(rec.arrays["ids"], dtype=np.int64)
                searcher.delete(ids)
            elif rec.op == "compact":
                searcher.compact()
            else:
                raise PersistenceError(
                    f"journal record {position} has unknown op {rec.op!r}"
                )
        except KeyError as exc:
            raise PersistenceError(
                f"journal record {position} ({rec.op!r}) is missing its "
                f"{exc} array"
            ) from exc
    return len(records)


__all__ = [
    "JOURNAL_MAGIC",
    "JournalContents",
    "JournalRecord",
    "MutationJournal",
    "read_journal",
    "replay_records",
]
