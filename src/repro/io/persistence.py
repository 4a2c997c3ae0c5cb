"""Save/load support for fitted IVF searchers.

:func:`save_searcher` / :func:`load_searcher` store a complete
:class:`repro.index.searcher.IVFQuantizedSearcher`: IVF centroids and
assignments, the cluster-grouped packed codes, the raw vectors of the flat
re-ranking index, the tombstone mask and external-id mapping of the
mutable lifecycle, the re-ranker, the rotation and the rounding vector
(queries draw no randomness, so there is no generator state to store).  A
reloaded searcher answers ``search`` / ``search_batch`` *bit-identically*
(ids, distances and cost counters) to the saved one, and supports further
``insert`` / ``delete`` / ``compact`` calls.

The searcher has exactly one on-disk container (``RBQARCH6``, written as
format **v12**, read as v9–v12): a binary file holding a JSON header plus
64-byte-aligned raw sections for every large array — the arena's packed
code words (``arena_codes``: plane-major bit-planes, exactly the arena's
resident matrix, which queries read), the stored estimator constants
(``arena_consts``), the slot map, and the raw re-rank vectors.  Sections
can be read zero-copy via ``np.memmap`` (``load_searcher(path,
mmap=True)``), so a warm restart skips
decompression and bit-unpacking entirely and supports datasets larger
than RAM.  Retired layouts are refused by name, with the last commit that
reads them: container formats v6–v8 (``aaf8be8``), the npz searcher
layouts v1–v5 and the sharded directory archive (``422ac16``), and the
bare-quantizer npz (magic ``rabitq/quantizer``, v2–v4; ``3b59eee``).

Every save is **crash-safe**: archives are written to a temporary file,
fsynced, and atomically renamed over the destination, so a crash mid-save
always leaves either the complete previous archive or the complete new
one — never a torn file under the final name.  Mutations *between* saves
are covered by the append-only journal (:mod:`repro.io.journal`): pass
``journal=True`` to :func:`load_searcher` to replay and re-attach it.

Every load error caused by the file itself — missing, truncated, corrupt,
wrong magic, unsupported version, misaligned or short v6 sections —
raises :class:`repro.exceptions.PersistenceError`.
"""

from __future__ import annotations

import json
import os
import struct
import uuid as _uuid
import zipfile
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.config import SUPPORTED_CODE_BITS, RaBitQConfig
from repro.core.estimator import (
    n_consts_for,
    n_stored_consts_for,
    stored_view_rows,
)
from repro.core.metric import resolve_metric
from repro.core.query import sample_rounding_offsets
from repro.core.rotation import FastHadamardRotation, QRRotation
from repro.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    JournalError,
    NotFittedError,
    PersistenceError,
)
from repro.index.arena import CodeArena
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.rerank import (
    ErrorBoundReranker,
    NoReranker,
    Reranker,
    TopCandidateReranker,
)
from repro.index.searcher import IVFQuantizedSearcher
from repro.io import _fsio
from repro.io.journal import (
    MutationJournal,
    read_journal,
    replay_records,
)

PathLike = Union[str, os.PathLike]

#: Magic identifier of a searcher archive.
MAGIC_SEARCHER = "rabitq/searcher"

#: Searcher-archive format, bumped on incompatible changes.  Version 6
#: introduced the memmap-able binary container described in the module
#: docstring: a JSON header carrying the small metadata (configuration,
#: lifecycle counters, archive UUID chain) plus 64-byte-aligned raw
#: sections for the large arrays, laid out exactly as the in-memory
#: ``CodeArena`` holds them (cluster-grouped, slack-free) so a load — and
#: in particular a ``mmap=True`` load — adopts them without re-deriving
#: anything.  Later versions keep the container (magic, prefix, alignment,
#: section rules).
#: Version 9, the oldest this build reads, stores the code width ``bits``
#: and the query generator states in the header.  Version 10 stores the
#: rounding vector as the ``rounding_offsets`` section in place of the
#: generator states; a v9 archive derives it from the stored seed as
#: ``fit`` does, so it answers like a current build from the same seeds,
#: not like the build that wrote it.  ``tests/data`` holds v9 archives
#: written by ``aaf8be8``.  Version 11 drops the ``arena_bits`` section
#: (the codes' ``uint8`` levels) that v9 and v10 wrote beside
#: ``arena_codes``: the packed codes are the arena's one resident form, and
#: every version this build reads is loaded from them.  Version 12 stores
#: only the constants the estimator cannot derive
#: (:func:`repro.core.estimator.stored_code_consts`; the header's
#: ``n_consts`` counts them): 16 B per code at ``B = 1`` under l2, where
#: v9–v11 stored the whole 56 B view.  A v9–v11 archive loads by keeping
#: its stored rows and dropping the derived ones (a copy, so its constants
#: are read into memory even under ``mmap=True``).
SEARCHER_FORMAT_VERSION = 12

#: Binary-container format versions this build can read.
_SEARCHER_BINARY_VERSIONS = (9, 10, 11, 12)

#: The first version that stores only the stored constants.
_STORED_CONSTS_VERSION = 12

#: Last commit whose ``load_searcher`` reads container formats v6–v8.
_PRE_V9_COMMIT = "aaf8be8"

#: Last commit whose ``load_searcher`` reads the retired layouts: the npz
#: searcher archives (v1–v5) and the sharded directory archive.
_RETIRED_LAYOUTS_COMMIT = "422ac16"

#: Last commit that reads the retired bare-quantizer npz (magic
#: ``rabitq/quantizer``, format v2–v4).
_RETIRED_QUANTIZER_COMMIT = "3b59eee"

#: The one journal kind (the header field predates the retired layouts).
_JOURNAL_KIND = "searcher"

#: First bytes of a format-v6 searcher archive.
V6_MAGIC = b"RBQARCH6"

#: v6 file prefix: magic + u64 JSON-header length (little-endian).
_V6_PREFIX = struct.Struct("<8sQ")

#: Raw sections are aligned to this many bytes (cache-line / SIMD-lane
#: friendly, and a whole multiple of every stored itemsize).
_V6_ALIGN = 64

#: Upper bound on a declared v6 header length; anything larger is
#: corruption, not a plausible archive.
_V6_MAX_HEADER = 256 * 1024 * 1024

#: Sections that must stay private, writable copies even under
#: ``mmap=True``: the tombstone mask is flipped in place by ``delete``,
#: and both arrays are tiny next to the code/vector sections.
_V6_ALWAYS_MATERIALIZED = frozenset({"ids", "live"})

#: Errors that ``np.load`` / zip decompression raise on unreadable input.
_READ_ERRORS = (OSError, ValueError, zipfile.BadZipFile, EOFError, KeyError)

#: Additionally, errors that internally-inconsistent archive contents raise
#: while the loaders re-assemble objects (mis-sized arrays, out-of-range
#: config values, ...).  All are converted to :class:`PersistenceError`.
_PARSE_ERRORS = _READ_ERRORS + (
    IndexError,
    TypeError,
    AttributeError,
    InvalidParameterError,
    DimensionMismatchError,
)


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #


def _resolve_path(path: PathLike) -> Path:
    """Accept both ``index`` and ``index.npz`` (NumPy appends the suffix)."""
    candidate = Path(path)
    if not candidate.exists():
        with_suffix = candidate.with_suffix(candidate.suffix + ".npz")
        if with_suffix.exists():
            return with_suffix
        raise PersistenceError(f"no such index file: {path!s}")
    return candidate


def default_journal_path(path: PathLike) -> Path:
    """The journal file of the archive at ``path``: ``<archive>.journal``."""
    candidate = Path(path)
    return candidate.with_name(candidate.name + ".journal")


def _new_archive_uuid() -> str:
    return _uuid.uuid4().hex


def _rounding_offsets(
    stored: np.ndarray | None, seed: int | None, code_length: int
) -> np.ndarray:
    """An archive's rounding vector: ``code_length`` floats in [0, 1).

    ``stored`` is ``None`` for an archive that predates storing it: the
    vector is then derived from the seed as ``fit`` derives it (a seedless
    archive counts as seed 0, so that two loads of one file agree).
    """
    if stored is None:
        return sample_rounding_offsets(seed or 0, code_length)
    offsets = np.array(stored, dtype=np.float64)
    in_range = (offsets >= 0.0) & (offsets < 1.0)  # False for NaN too
    if offsets.shape != (code_length,) or not in_range.all():
        raise PersistenceError(
            f"archive stores a malformed rounding vector: shape "
            f"{offsets.shape}, need {code_length} floats in [0, 1)"
        )
    return offsets


# --------------------------------------------------------------------- #
# Crash-safe write primitives
# --------------------------------------------------------------------- #


def _write_all(f, data) -> None:
    """Write the whole buffer (raw unbuffered writes may be partial)."""
    view = memoryview(data)
    while view.nbytes:
        written = f.write(view)
        if written is None:  # pragma: no cover - buffered fallback
            return
        view = view[written:]


def _commit_temp(tmp: Path, final: Path) -> None:
    """Atomically publish ``tmp`` (already fsynced) as ``final``."""
    _fsio.replace(tmp, final)
    _fsio.fsync_dir(final.parent)


# --------------------------------------------------------------------- #
# Format v6 container primitives
# --------------------------------------------------------------------- #


def _v6_align(offset: int) -> int:
    return (offset + _V6_ALIGN - 1) // _V6_ALIGN * _V6_ALIGN


def _v6_header_bytes(
    header: dict, sections: dict[str, np.ndarray]
) -> tuple[bytes, list[dict]]:
    """Serialize the v6 header with converged section offsets.

    Offsets depend on the header length, which depends on the offsets'
    digit counts — iterate to the (monotone, hence guaranteed) fixed
    point.
    """
    arrays = {
        name: np.ascontiguousarray(array) for name, array in sections.items()
    }
    data_start = 0
    for _ in range(10):
        table = []
        cursor = data_start
        for name, array in arrays.items():
            offset = _v6_align(cursor)
            table.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": int(array.nbytes),
                }
            )
            cursor = offset + int(array.nbytes)
        # default=int: a seed or cluster count given as a NumPy integer.
        payload = json.dumps(
            {**header, "sections": table}, sort_keys=True, default=int
        ).encode("utf-8")
        needed = _v6_align(_V6_PREFIX.size + len(payload))
        if needed == data_start:
            return _V6_PREFIX.pack(V6_MAGIC, len(payload)) + payload, table
        data_start = needed
    raise PersistenceError(
        "v6 header layout did not converge"
    )  # pragma: no cover - the fixed point is monotone


def _write_v6_archive(
    path: Path, header: dict, sections: dict[str, np.ndarray]
) -> None:
    """Write a v6 container crash-safely (temp + fsync + atomic rename)."""
    header_bytes, table = _v6_header_bytes(header, sections)
    tmp = path.with_name(path.name + ".tmp")
    f = _fsio.open_write(tmp)
    try:
        _write_all(f, header_bytes)
        cursor = len(header_bytes)
        for entry in table:
            pad = entry["offset"] - cursor
            if pad:
                _write_all(f, b"\0" * pad)
            array = np.ascontiguousarray(sections[entry["name"]])
            if array.nbytes:
                _write_all(f, memoryview(array).cast("B"))
            cursor = entry["offset"] + entry["nbytes"]
        _fsio.fsync_file(f)
    finally:
        f.close()
    _commit_temp(tmp, path)


def _not_a_container(path: Path, head: bytes) -> PersistenceError:
    """The error for a file that does not start with ``RBQARCH6``.

    Names what the file is when that can be told — in particular the
    retired npz searcher layouts and the retired quantizer npz, with the
    last commit that reads them.
    """
    if head[:2] == b"PK":  # a zip file, i.e. an ``.npz``
        try:
            with np.load(path) as archive:
                magic = str(archive["magic"])
                version = int(archive["format_version"])
        except _READ_ERRORS + (zlib.error,):
            pass
        else:
            if magic == MAGIC_SEARCHER:
                return PersistenceError(
                    f"{path!s} is an npz searcher archive (format "
                    f"v{version}); the npz layouts v1-v5 are retired and "
                    f"the last commit that reads them is "
                    f"{_RETIRED_LAYOUTS_COMMIT} (load it there and re-save "
                    f"to upgrade)"
                )
            if magic == "rabitq/quantizer":
                return PersistenceError(
                    f"{path!s} is a quantizer npz archive (magic {magic!r}, "
                    f"format v{version}); the quantizer npz v2-v4 is retired "
                    f"and the last commit that reads it is "
                    f"{_RETIRED_QUANTIZER_COMMIT}"
                )
            return PersistenceError(
                f"{path!s} is an npz archive with magic {magic!r} (format "
                f"v{version}), not a searcher archive"
            )
    return PersistenceError(
        f"{path!s} is not a searcher archive (it does not start with the "
        f"{V6_MAGIC.decode()} container magic)"
    )


def _read_v6_header(path: Path) -> tuple[dict, int]:
    """Read and validate the JSON header; return it with the file size."""
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            prefix = f.read(_V6_PREFIX.size)
            if prefix[: len(V6_MAGIC)] != V6_MAGIC:
                raise _not_a_container(path, prefix)
            if len(prefix) < _V6_PREFIX.size:
                raise PersistenceError(
                    f"cannot read searcher index file {path!s}: corrupt or "
                    f"truncated archive (short v6 prefix)"
                )
            _, header_len = _V6_PREFIX.unpack(prefix)
            if header_len > _V6_MAX_HEADER:
                raise PersistenceError(
                    f"cannot read searcher index file {path!s}: implausible "
                    f"header length {header_len}"
                )
            raw = f.read(header_len)
            if len(raw) < header_len:
                raise PersistenceError(
                    f"cannot read searcher index file {path!s}: corrupt or "
                    f"truncated archive (short v6 header)"
                )
    except OSError as exc:
        raise PersistenceError(
            f"cannot read searcher index file {path!s}: {exc}"
        ) from exc
    try:
        header = json.loads(raw)
    except ValueError as exc:
        raise PersistenceError(
            f"cannot read searcher index file {path!s}: corrupt v6 header "
            f"({exc})"
        ) from exc
    if not isinstance(header, dict):
        raise PersistenceError(
            f"cannot read searcher index file {path!s}: corrupt v6 header"
        )
    if header.get("magic") != MAGIC_SEARCHER:
        raise PersistenceError(
            f"{path!s} is not a searcher archive "
            f"(magic {header.get('magic')!r}, expected {MAGIC_SEARCHER!r})"
        )
    if header.get("format_version") in (6, 7, 8):
        raise PersistenceError(
            f"{path!s} is a format v{header['format_version']} searcher "
            f"archive; formats v6-v8 are retired and the last commit that "
            f"reads them is {_PRE_V9_COMMIT} (load it there and re-save to "
            f"upgrade)"
        )
    if header.get("format_version") not in _SEARCHER_BINARY_VERSIONS:
        raise PersistenceError(
            f"unsupported searcher index format version "
            f"{header.get('format_version')}; this build reads version(s) "
            f"{', '.join(map(str, _SEARCHER_BINARY_VERSIONS))}"
        )
    return header, size


class _V6Sections:
    """Validated access to a v6 archive's raw sections."""

    def __init__(self, path: Path, header: dict, file_size: int) -> None:
        self.path = path
        self._file_size = file_size
        self._table: dict[str, dict] = {}
        table = header.get("sections")
        if not isinstance(table, list):
            raise PersistenceError(
                f"cannot read searcher index file {path!s}: v6 header has "
                f"no section table"
            )
        for entry in table:
            try:
                name = str(entry["name"])
                dtype = np.dtype(str(entry["dtype"]))
                shape = tuple(int(s) for s in entry["shape"])
                offset = int(entry["offset"])
                nbytes = int(entry["nbytes"])
            except (KeyError, TypeError, ValueError, SyntaxError) as exc:
                # SyntaxError: ``np.dtype`` evaluates comma-separated specs.
                raise PersistenceError(
                    f"cannot read searcher index file {path!s}: malformed "
                    f"v6 section table entry ({exc})"
                ) from exc
            expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if min(shape, default=0) < 0 or nbytes != expected:
                raise PersistenceError(
                    f"v6 section {name!r} of {path!s} declares {nbytes} "
                    f"bytes for shape {shape} ({expected} expected): "
                    f"inconsistent section table"
                )
            if offset < 0 or offset % _V6_ALIGN:
                raise PersistenceError(
                    f"v6 section {name!r} of {path!s} is misaligned "
                    f"(offset {offset} is not a multiple of {_V6_ALIGN})"
                )
            if offset + nbytes > file_size:
                raise PersistenceError(
                    f"v6 section {name!r} of {path!s} extends past the end "
                    f"of the file: corrupt or truncated archive"
                )
            self._table[name] = {
                "dtype": dtype,
                "shape": shape,
                "offset": offset,
                "nbytes": nbytes,
            }

    def load(self, name: str, *, mmap: bool) -> np.ndarray:
        """One section, as a read-only memmap or a fresh private array."""
        entry = self._table.get(name)
        if entry is None:
            raise PersistenceError(
                f"v6 archive {self.path!s} has no section {name!r}"
            )
        dtype, shape = entry["dtype"], entry["shape"]
        count = int(np.prod(shape, dtype=np.int64))
        if count == 0:
            return np.zeros(shape, dtype=dtype)
        if mmap and name not in _V6_ALWAYS_MATERIALIZED:
            return np.memmap(
                self.path,
                mode="r",
                dtype=dtype,
                shape=shape,
                offset=entry["offset"],
            )
        with open(self.path, "rb") as f:
            f.seek(entry["offset"])
            array = np.fromfile(f, dtype=dtype, count=count)
        if array.shape[0] < count:
            raise PersistenceError(
                f"v6 section {name!r} of {self.path!s} is shorter than its "
                f"section-table entry: corrupt or truncated archive"
            )
        return array.reshape(shape)


# --------------------------------------------------------------------- #
# Full searcher archives
# --------------------------------------------------------------------- #

_RERANKER_KINDS = {
    ErrorBoundReranker: "error_bound",
    TopCandidateReranker: "top_candidate",
    NoReranker: "none",
}


def _save_reranker(reranker: Reranker) -> tuple[str, int]:
    kind = _RERANKER_KINDS.get(type(reranker))
    if kind is None:
        raise InvalidParameterError(
            f"cannot serialize re-ranker of type {type(reranker).__name__}; "
            f"supported: {sorted(k.__name__ for k in _RERANKER_KINDS)}"
        )
    param = (
        reranker.n_candidates if isinstance(reranker, TopCandidateReranker) else 0
    )
    return kind, int(param)


def _load_reranker(kind: str, param: int) -> Reranker:
    if kind == "error_bound":
        return ErrorBoundReranker()
    if kind == "top_candidate":
        return TopCandidateReranker(param)
    if kind == "none":
        return NoReranker()
    raise PersistenceError(f"unknown re-ranker kind in archive: {kind!r}")


def _check_saveable(searcher: IVFQuantizedSearcher) -> tuple[str, int]:
    if not searcher.is_fitted:
        raise NotFittedError("cannot save an unfitted IVFQuantizedSearcher")
    return _save_reranker(searcher.reranker)


def save_searcher(searcher: IVFQuantizedSearcher, path: PathLike) -> None:
    """Serialize a fitted :class:`IVFQuantizedSearcher` to ``path``.

    The archive captures the complete query-time and lifecycle state —
    the packed code words, the stored estimator constants,
    IVF centroids/assignments, raw vectors, tombstones, external-id
    mapping, rotation and rounding vector — so that :func:`load_searcher`
    reproduces search results bit-identically and supports further mutation.

    The memmap-able binary container is written crash-safely (temp file +
    fsync + atomic rename).  The save also records the archive UUID chain
    and — when the searcher has a mutation journal attached — rotates the
    journal, since the new archive subsumes every journaled mutation.

    Raises
    ------
    NotFittedError
        If the searcher has not been fitted.
    InvalidParameterError
        If the searcher uses an external (non-RaBitQ) quantizer or a
        custom re-ranker that the archive format cannot represent.
    """
    path = Path(path)
    reranker_kind, reranker_param = _check_saveable(searcher)
    ivf = searcher.ivf
    flat = searcher.flat
    config = searcher.rabitq_config
    arena = searcher._arena
    assert arena is not None
    assert searcher._ids is not None and searcher._live is not None
    assert searcher._shared_rotation is not None

    dump = arena.dump_tight()
    rotation = searcher._shared_rotation
    if isinstance(rotation, FastHadamardRotation):
        rotation_entry = ("signs", rotation.signs)
    else:
        rotation_entry = ("matrix", rotation.as_matrix())

    archive_uuid = _new_archive_uuid()
    parent_uuid = getattr(searcher, "_archive_uuid", None)
    meta = {
        # RaBitQ configuration
        "epsilon0": float(config.epsilon0),
        "query_bits": int(config.query_bits),
        "config_code_length": config.code_length,
        "code_length": int(arena.code_length),
        "randomized_rounding": bool(config.randomized_rounding),
        "rotation_kind": str(config.rotation),
        "seed": config.seed,
        # Searcher construction parameters
        "n_clusters_param": searcher.n_clusters,
        "kmeans_iters": int(ivf.kmeans_iters),
        "compact_threshold": searcher.compact_threshold,
        "reranker_kind": reranker_kind,
        "reranker_param": reranker_param,
        "metric": searcher.metric,
        # Shapes (cross-checked against the section table on load)
        "dim": int(flat.dim),
        "n_slots": int(len(flat)),
        "n_clusters": int(arena.n_clusters),
        "n_words": (arena.code_length + 63) // 64 * searcher.bits,
        "n_consts": int(arena.n_stored),
        "arena_sizes": dump["sizes"].tolist(),
        "rotation": rotation_entry[0],
        "bits": searcher.bits,
        # Lifecycle counter
        "next_id": int(searcher._next_id),
    }
    sections = {
        "arena_codes": dump["codes"],
        "arena_consts": dump["consts"],
        "arena_slots": dump["slots"],
        "data": np.ascontiguousarray(flat.data, dtype=np.float64),
        "centroids": np.ascontiguousarray(ivf.centroids, dtype=np.float64),
        "assignments": np.ascontiguousarray(ivf.assignments, dtype=np.int64),
        "ids": np.ascontiguousarray(searcher._ids, dtype=np.int64),
        "live": np.ascontiguousarray(searcher._live, dtype=np.bool_),
        "rotation": np.ascontiguousarray(rotation_entry[1], dtype=np.float64),
        "rounding_offsets": searcher._rounding_offsets,
    }
    header = {
        "magic": MAGIC_SEARCHER,
        "format_version": SEARCHER_FORMAT_VERSION,
        "archive_uuid": archive_uuid,
        "parent_uuid": parent_uuid,
        "meta": meta,
    }
    _write_v6_archive(path, header, sections)
    searcher._archive_uuid = archive_uuid
    # The new archive subsumes every journaled mutation: restart the journal.
    if searcher._journal is not None:
        searcher._journal.rotate(default_journal_path(path), archive_uuid)


def load_searcher(
    path: PathLike, *, mmap: bool = False, journal: bool = False
) -> IVFQuantizedSearcher:
    """Load a searcher previously stored with :func:`save_searcher`.

    The returned searcher is fully fitted and mutable, and its
    ``search`` / ``search_batch`` answers — ids, distances and cost
    counters — are element-wise identical to what the saved searcher would
    have returned from the moment it was saved.

    Parameters
    ----------
    mmap:
        Memory-map the archive's large sections (the packed codes,
        fused constants, raw vectors) instead of reading
        them into RAM: the load is near-constant-time and the dataset may
        exceed physical memory.  Results are bit-identical to a
        materialized load; the first mutation reallocates the affected
        arrays in memory (the mapped file is never written).
    journal:
        Replay the mutation journal next to the archive (if one exists
        for this archive generation) and attach it, so subsequent
        ``insert`` / ``delete`` / ``compact`` calls are journaled — the
        crash-recovery contract.  A torn journal tail is truncated, a
        journal superseded by the save that wrote this archive is
        discarded, and a journal belonging to any other archive raises
        :class:`repro.exceptions.JournalError`.

    Raises
    ------
    PersistenceError
        If the file is missing, truncated or corrupt, uses an unsupported
        format version, has a misaligned or short v6 section table, or is
        anything but the binary container — an npz archive, a sharded
        directory, garbage; the message names what was found.
    """
    candidate = _resolve_path(path)
    if candidate.is_dir():
        sharded = (candidate / "manifest.json").is_file()
        raise PersistenceError(
            f"{candidate!s} is a {'sharded searcher ' if sharded else ''}"
            f"directory, not a searcher archive file; the sharded directory "
            f"layout is retired and the last commit that reads it is "
            f"{_RETIRED_LAYOUTS_COMMIT} (each shard_NNNN-*.rbq file inside "
            f"one is a plain searcher archive that load_searcher opens)"
        )
    header, file_size = _read_v6_header(candidate)
    searcher = _load_searcher_v6(candidate, header, file_size, mmap=mmap)
    if journal:
        _attach_journal(
            searcher,
            default_journal_path(candidate),
            archive_uuid=str(header.get("archive_uuid")),
            parent_uuid=header.get("parent_uuid"),
        )
    return searcher


def _install_lifecycle(
    searcher: IVFQuantizedSearcher,
    ids: np.ndarray,
    live: np.ndarray,
    next_id: int,
) -> None:
    searcher._ids = np.asarray(ids, dtype=np.int64)
    searcher._live = np.asarray(live, dtype=bool)
    searcher._n_dead = int((~searcher._live).sum())
    searcher._next_id = int(next_id)
    searcher._id_to_slot = {
        int(ext): slot
        for slot, (ext, alive) in enumerate(
            zip(searcher._ids.tolist(), searcher._live.tolist())
        )
        if alive
    }


def _load_searcher_v6(
    path: Path, header: dict, file_size: int, *, mmap: bool
) -> IVFQuantizedSearcher:
    sections = _V6Sections(path, header, file_size)
    try:
        meta = header["meta"]
        bits = int(meta["bits"])
        if bits not in SUPPORTED_CODE_BITS:
            raise PersistenceError(
                f"archive declares an unsupported code width bits={bits}; "
                f"this build reads {', '.join(map(str, SUPPORTED_CODE_BITS))}"
            )
        config = RaBitQConfig(
            epsilon0=float(meta["epsilon0"]),
            query_bits=int(meta["query_bits"]),
            code_length=(
                None
                if meta["config_code_length"] is None
                else int(meta["config_code_length"])
            ),
            randomized_rounding=bool(meta["randomized_rounding"]),
            rotation=str(meta["rotation_kind"]),
            seed=None if meta["seed"] is None else int(meta["seed"]),
            bits=bits,
        )
        metric = resolve_metric(str(meta["metric"]))
        threshold = meta["compact_threshold"]
        searcher = IVFQuantizedSearcher(
            "rabitq",
            n_clusters=(
                None
                if meta["n_clusters_param"] is None
                else int(meta["n_clusters_param"])
            ),
            rabitq_config=config,
            reranker=_load_reranker(
                str(meta["reranker_kind"]), int(meta["reranker_param"])
            ),
            compact_threshold=None if threshold is None else float(threshold),
            metric=metric,
        )

        code_length = int(meta["code_length"])
        n_words = int(meta["n_words"])
        n_consts = int(meta["n_consts"])
        n_slots = int(meta["n_slots"])
        n_clusters = int(meta["n_clusters"])
        dim = int(meta["dim"])
        view_consts = n_consts_for(metric, bits)
        stores_view = header["format_version"] < _STORED_CONSTS_VERSION
        expected_consts = (
            view_consts if stores_view else n_stored_consts_for(metric, bits)
        )
        if n_consts != expected_consts:
            raise PersistenceError(
                f"format v{header['format_version']} archive stores "
                f"{n_consts} fused constants per code; metric "
                f"{metric.name!r} at bits={bits} expects {expected_consts}"
            )
        if n_words != (code_length + 63) // 64 * bits:
            raise PersistenceError(
                f"archive has inconsistent code matrices: {n_words} words "
                f"do not match code length {code_length} at bits={bits}"
            )

        rotation_sec = sections.load("rotation", mmap=mmap)
        if meta["rotation"] == "signs":
            rotation = FastHadamardRotation.from_signs(
                code_length, rotation_sec
            )
        else:
            rotation = QRRotation.from_matrix(np.asarray(rotation_sec))

        data = sections.load("data", mmap=mmap)
        if tuple(data.shape) != (n_slots, dim):
            raise PersistenceError(
                f"archive has inconsistent per-slot arrays: data has shape "
                f"{tuple(data.shape)}, expected {(n_slots, dim)}"
            )
        searcher._flat = FlatIndex(data, allow_empty=True)

        centroids = sections.load("centroids", mmap=mmap)
        assignments = sections.load("assignments", mmap=mmap)
        if centroids.shape[0] != n_clusters:
            raise PersistenceError(
                f"archive has inconsistent cluster metadata: "
                f"{centroids.shape[0]} centroids for {n_clusters} clusters"
            )
        searcher._ivf = IVFIndex.from_state(
            centroids, assignments, kmeans_iters=int(meta["kmeans_iters"])
        )

        sizes = np.asarray(meta["arena_sizes"], dtype=np.int64).reshape(-1)
        if sizes.shape[0] != n_clusters:
            raise PersistenceError(
                f"archive has inconsistent cluster metadata: "
                f"{sizes.shape[0]} arena regions for {n_clusters} clusters"
            )
        if int(sizes.sum()) != n_slots:
            raise PersistenceError(
                f"archive has inconsistent per-slot arrays: arena regions "
                f"hold {int(sizes.sum())} rows, data has {n_slots}"
            )
        consts = sections.load("arena_consts", mmap=mmap)
        if stores_view:
            if consts.shape[0] != view_consts:
                raise PersistenceError(
                    f"archive section 'arena_consts' has {consts.shape[0]} "
                    f"rows, its header declares {view_consts}"
                )
            consts = consts[stored_view_rows(view_consts, bits > 1)]
        arena = CodeArena.from_sections(
            code_length,
            view_consts,
            codes=sections.load("arena_codes", mmap=mmap),
            consts=consts,
            slots=sections.load("arena_slots", mmap=mmap),
            sizes=sizes,
            bits=bits,
            epsilon0=config.epsilon0,
        )
        # The arena's cluster-grouped row order must equal the bucket id
        # lists rebuilt from the assignment array — the invariant every
        # estimate relies on.  One vectorized comparison pins it.
        bucket_order = [
            bucket.vector_ids
            for bucket in searcher._ivf.buckets
            if len(bucket)
        ]
        expected_slots = (
            np.concatenate(bucket_order)
            if bucket_order
            else np.empty(0, dtype=np.int64)
        )
        if not np.array_equal(
            np.asarray(arena.slots), expected_slots
        ) or not np.array_equal(
            np.asarray(sizes),
            np.bincount(
                np.asarray(assignments, dtype=np.int64), minlength=n_clusters
            ),
        ):
            raise PersistenceError(
                "archive has inconsistent cluster metadata: the arena's "
                "slot layout does not match the IVF assignment array"
            )
        searcher._arena = arena
        stored = header["format_version"] >= 10
        searcher._install_rotation(
            rotation,
            _rounding_offsets(
                sections.load("rounding_offsets", mmap=False) if stored else None,
                config.seed,
                code_length,
            ),
        )

        ids = sections.load("ids", mmap=mmap)
        live = sections.load("live", mmap=mmap)
        for name, array in (("ids", ids), ("live", live)):
            if array.shape[0] != n_slots:
                raise PersistenceError(
                    f"archive has inconsistent per-slot arrays: {name} has "
                    f"{array.shape[0]} rows, data has {n_slots}"
                )
        _install_lifecycle(searcher, ids, live, int(meta["next_id"]))
        searcher._archive_uuid = str(header.get("archive_uuid"))
    except _PARSE_ERRORS as exc:
        raise PersistenceError(
            f"cannot read searcher index file {path!s}: corrupt or "
            f"truncated archive ({exc})"
        ) from exc
    return searcher


# --------------------------------------------------------------------- #
# Journal attachment
# --------------------------------------------------------------------- #


def _attach_journal(
    searcher: IVFQuantizedSearcher,
    journal_path: Path,
    *,
    archive_uuid: str,
    parent_uuid: str | None,
) -> None:
    """Replay + attach the journal for a freshly-loaded searcher.

    Four cases, derived from the journal header's ``archive_uuid``:

    * no journal (or a torn header, i.e. a crash during creation): start
      a fresh journal for this archive generation;
    * matches this archive: replay every valid record (the torn tail, if
      any, is truncated) and continue appending;
    * matches this archive's *parent*: the save that wrote this archive
      completed but crashed before rotating the journal — every record is
      already inside the archive, so the journal is discarded and
      restarted;
    * anything else: refuse (:class:`JournalError`) — replaying another
      index's mutations would corrupt this one.
    """
    contents = read_journal(journal_path)
    if contents is None:
        searcher._journal = MutationJournal.create(
            journal_path, archive_uuid, _JOURNAL_KIND
        )
        return
    if contents.kind != _JOURNAL_KIND:
        raise JournalError(
            f"journal {journal_path!s} records {contents.kind!r} mutations; "
            f"this archive needs a {_JOURNAL_KIND!r} journal"
        )
    if contents.archive_uuid == archive_uuid:
        try:
            replay_records(searcher, contents.records)
        except (InvalidParameterError, DimensionMismatchError) as exc:
            raise PersistenceError(
                f"journal {journal_path!s} cannot be replayed against "
                f"archive {archive_uuid}: {exc}"
            ) from exc
        searcher._journal = MutationJournal.resume(journal_path, contents)
        return
    if parent_uuid is not None and contents.archive_uuid == parent_uuid:
        # Superseded: the archive was saved from a state that already
        # includes every journaled mutation.
        searcher._journal = MutationJournal.create(
            journal_path, archive_uuid, _JOURNAL_KIND
        )
        return
    raise JournalError(
        f"journal {journal_path!s} belongs to archive "
        f"{contents.archive_uuid}, not to {archive_uuid} (or its parent); "
        f"refusing to replay another index's mutations"
    )


__all__ = [
    "save_searcher",
    "load_searcher",
    "default_journal_path",
    "SEARCHER_FORMAT_VERSION",
    "MAGIC_SEARCHER",
    "V6_MAGIC",
]
