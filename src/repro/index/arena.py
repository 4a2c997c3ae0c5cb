"""Contiguous code arena: cluster-grouped storage for quantized codes.

The pre-arena searcher kept one :class:`repro.core.quantizer.RaBitQ` object
per IVF cluster, each owning its own small code matrix and per-vector float
arrays.  Scanning ``nprobe`` clusters then meant iterating Python objects and
concatenating dozens of small arrays per query.  The :class:`CodeArena`
replaces that object soup with one contiguous, cluster-grouped layout that
stores every code once:

* ``bits`` — one ``(capacity, code_length)`` ``uint8`` matrix of code
  levels (0/1 at ``B = 1``, ``[0, 2^B - 1]`` above it; 1 byte per
  dimension), the operand of the integer-exact GEMM/GEMV estimation
  kernel.  Archives store the packed form as well
  (:func:`repro.core.bitops.pack_level_planes` of this matrix), but no
  query reads it, so the arena does not keep it;
* ``consts`` — one ``(n_consts, capacity)`` float64 matrix of fused
  estimator constants (see :func:`repro.core.estimator.build_code_consts`),
  stored constants-major so each constant's slice over a cluster is
  contiguous;
* ``slots`` — the searcher slot id of every arena row;
* a CSR-style region table (``starts`` / ``sizes`` / ``caps``) mapping each
  cluster to its contiguous row range.

Probing a cluster therefore yields *views* — zero-copy contiguous slices of
``bits`` / ``consts`` / ``slots`` — instead of per-object Python iteration.
Row order inside a cluster region always equals the IVF bucket's id order
(ascending slot id), which is exactly the row order the per-cluster
quantizers used to store, so estimates read from the arena are bit-identical
to the pre-arena layout.  The arena does not know the code width: the
searcher passes it where the arithmetic needs it.

The arena is maintained incrementally across the index lifecycle: cluster
regions carry geometric capacity slack, so :meth:`CodeArena.append` writes
in place and only rebuilds the arena (amortized O(1) per appended row) when
a region overflows; :meth:`CodeArena.compact` drops tombstoned rows and
renumbers the surviving slots in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import N_CONSTS
from repro.exceptions import DimensionMismatchError, InvalidParameterError

#: Extra capacity factor applied to a cluster region when it overflows.
_GROWTH_FACTOR = 2.0


class CodeArena:
    """Contiguous cluster-grouped storage of code levels + fused constants.

    Parameters
    ----------
    n_clusters:
        Number of cluster regions.
    code_length:
        Code length in dimensions (the ``bits`` matrix has this many
        columns).
    n_consts:
        Rows of the fused estimator-constants matrix —
        :func:`repro.core.estimator.n_consts_for` of the served metric and
        code width (``N_CONSTS`` for binary squared-L2 serving, the
        default).
    """

    __slots__ = (
        "bits",
        "consts",
        "slots",
        "starts",
        "sizes",
        "caps",
        "code_length",
        "n_consts",
    )

    def __init__(
        self, n_clusters: int, code_length: int, n_consts: int = N_CONSTS
    ) -> None:
        if n_clusters <= 0:
            raise InvalidParameterError("n_clusters must be positive")
        if n_consts < N_CONSTS:
            raise InvalidParameterError(
                f"n_consts must be at least {N_CONSTS}"
            )
        self.code_length = int(code_length)
        self.n_consts = int(n_consts)
        self.bits = np.empty((0, self.code_length), dtype=np.uint8)
        self.consts = np.empty((self.n_consts, 0), dtype=np.float64)
        self.slots = np.empty(0, dtype=np.int64)
        self.starts = np.zeros(n_clusters, dtype=np.int64)
        self.sizes = np.zeros(n_clusters, dtype=np.int64)
        self.caps = np.zeros(n_clusters, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n_clusters(self) -> int:
        """Number of cluster regions."""
        return int(self.starts.shape[0])

    @property
    def n_rows(self) -> int:
        """Number of stored codes (live regions, excluding slack)."""
        return int(self.sizes.sum())

    def memory_bytes(self) -> int:
        """Approximate arena footprint (levels + constants + ids)."""
        return int(self.bits.nbytes + self.consts.nbytes + self.slots.nbytes)

    def cluster_range(self, cid: int) -> tuple[int, int]:
        """``(start, end)`` row range of cluster ``cid``'s live rows."""
        start = int(self.starts[cid])
        return start, start + int(self.sizes[cid])

    def cluster_bits(self, cid: int) -> np.ndarray:
        """Code levels of cluster ``cid`` (a contiguous view)."""
        start, end = self.cluster_range(cid)
        return self.bits[start:end]

    def cluster_consts(self, cid: int) -> np.ndarray:
        """Fused constants of cluster ``cid``, shape ``(n_consts, size)``."""
        start, end = self.cluster_range(cid)
        return self.consts[:, start:end]

    # ------------------------------------------------------------------ #
    # Construction and mutation
    # ------------------------------------------------------------------ #

    @classmethod
    def from_blocks(
        cls,
        n_clusters: int,
        code_length: int,
        blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
        n_consts: int = N_CONSTS,
    ) -> "CodeArena":
        """Build an arena from per-cluster ``(levels, consts, slots)``.

        Used at fit time; regions are laid out tightly (no slack — slack
        appears on the first overflowing append).
        """
        arena = cls(n_clusters, code_length, n_consts)
        sizes = np.zeros(n_clusters, dtype=np.int64)
        for cid, (levels, _, _) in blocks.items():
            sizes[cid] = levels.shape[0]
        arena._allocate(sizes, sizes)
        for cid, block in blocks.items():
            arena._write_block(cid, 0, *block)
        return arena

    @classmethod
    def from_sections(
        cls,
        code_length: int,
        n_consts: int,
        *,
        bits: np.ndarray,
        consts: np.ndarray,
        slots: np.ndarray,
        sizes: np.ndarray,
    ) -> "CodeArena":
        """Adopt pre-laid-out tight backing arrays (the archive layout).

        The arrays must already be in cluster-grouped row order with no
        capacity slack: ``sizes[cid]`` rows per cluster, concatenated in
        cluster order (exactly what :meth:`dump_tight` produces).  They are
        adopted *as-is* — read-only ``np.memmap`` views included — which is
        what makes a memmapped load zero-copy.  The arena never writes into
        adopted arrays: with ``caps == sizes`` there is no slack, so the
        first :meth:`append` or :meth:`compact` reallocates fresh in-memory
        arrays and thereby materializes the mutated arena.
        """
        sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
        if sizes.shape[0] == 0:
            raise InvalidParameterError("n_clusters must be positive")
        if sizes.min(initial=0) < 0:
            raise InvalidParameterError("cluster sizes must be non-negative")
        arena = cls(sizes.shape[0], code_length, n_consts)
        total = int(sizes.sum())
        for name, array, expected in (
            ("bits", bits, (total, arena.code_length)),
            ("consts", consts, (arena.n_consts, total)),
            ("slots", slots, (total,)),
        ):
            if tuple(array.shape) != expected:
                raise DimensionMismatchError(
                    f"arena section {name!r} has shape {tuple(array.shape)}, "
                    f"expected {expected}"
                )
        arena.bits = bits
        arena.consts = consts
        arena.slots = slots
        arena.sizes = sizes.copy()
        arena.caps = sizes.copy()
        arena.starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)[:-1]]
        )
        return arena

    def dump_tight(self) -> dict[str, np.ndarray]:
        """Slack-free copies of the backing arrays, in cluster-grouped order.

        Returns ``bits`` / ``consts`` / ``slots`` plus the per-cluster
        ``sizes`` — exactly the layout :meth:`from_sections` adopts, so a
        dump → load round trip reproduces the arena's live rows
        bit-identically (capacity slack is the only thing dropped).
        """
        parts = [
            np.arange(start, start + size, dtype=np.int64)
            for start, size in zip(self.starts.tolist(), self.sizes.tolist())
            if size
        ]
        rows = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        return {
            "bits": np.ascontiguousarray(self.bits[rows]),
            "consts": np.ascontiguousarray(self.consts[:, rows]),
            "slots": np.ascontiguousarray(self.slots[rows]),
            "sizes": self.sizes.copy(),
        }

    def _allocate(self, sizes: np.ndarray, caps: np.ndarray) -> None:
        """(Re)allocate the backing arrays for the given region capacities."""
        total = int(caps.sum())
        self.bits = np.zeros((total, self.code_length), dtype=np.uint8)
        self.consts = np.zeros((self.n_consts, total), dtype=np.float64)
        self.slots = np.full(total, -1, dtype=np.int64)
        self.caps = caps.astype(np.int64, copy=True)
        self.starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(self.caps)[:-1]]
        )
        self.sizes = sizes.astype(np.int64, copy=True)

    def _write_block(self, cid, offset, levels, consts, slots) -> None:
        pos = int(self.starts[cid]) + int(offset)
        end = pos + levels.shape[0]
        self.bits[pos:end] = levels
        self.consts[:, pos:end] = consts
        self.slots[pos:end] = slots

    def append(
        self,
        cid: int,
        levels: np.ndarray,
        consts: np.ndarray,
        slots: np.ndarray,
    ) -> None:
        """Append encoded rows to cluster ``cid``'s region.

        Fits into the region's capacity slack when possible (pure in-place
        writes); otherwise the arena is rebuilt once with geometrically
        grown capacity for the overflowing cluster, keeping a long sequence
        of inserts amortized O(1) copies per row.
        """
        n_new = levels.shape[0]
        if n_new == 0:
            return
        if levels.shape[1] != self.code_length:
            raise DimensionMismatchError(
                "appended codes do not match the arena's code length"
            )
        size = int(self.sizes[cid])
        if size + n_new > int(self.caps[cid]):
            new_caps = self.caps.copy()
            new_caps[cid] = max(
                size + n_new, int(_GROWTH_FACTOR * (size + n_new)), 8
            )
            self._rebuild(new_caps)
        self._write_block(cid, size, levels, consts, slots)
        self.sizes[cid] = size + n_new

    def _rebuild(self, new_caps: np.ndarray) -> None:
        """Re-lay-out every region with the given capacities (data preserved)."""
        old_bits, old_consts, old_slots = self.bits, self.consts, self.slots
        old_starts, sizes = self.starts.copy(), self.sizes.copy()
        self._allocate(sizes, new_caps)
        for cid in range(self.n_clusters):
            size = int(sizes[cid])
            if size == 0:
                continue
            src = slice(int(old_starts[cid]), int(old_starts[cid]) + size)
            self._write_block(
                cid, 0, old_bits[src], old_consts[:, src], old_slots[src]
            )

    def compact(self, keep_slot: np.ndarray) -> None:
        """Drop rows whose slot is marked dead and renumber surviving slots.

        ``keep_slot`` is a boolean mask over *searcher slots* (``True`` =
        live).  Surviving rows keep their relative order inside each cluster
        region, and their slot ids are remapped to the slot's position among
        the survivors — the same renumbering the flat and IVF indexes apply
        during tombstone compaction.
        """
        mask = np.asarray(keep_slot, dtype=bool).reshape(-1)
        remap = np.cumsum(mask, dtype=np.int64) - 1
        old_bits, old_consts, old_slots = self.bits, self.consts, self.slots
        old_starts, old_sizes = self.starts.copy(), self.sizes.copy()

        new_sizes = np.zeros_like(old_sizes)
        kept_rows: list[tuple[int, np.ndarray]] = []
        for cid in range(self.n_clusters):
            size = int(old_sizes[cid])
            if size == 0:
                continue
            start = int(old_starts[cid])
            rows = slice(start, start + size)
            row_mask = mask[old_slots[rows]]
            kept = np.flatnonzero(row_mask) + start
            new_sizes[cid] = kept.shape[0]
            if kept.shape[0]:
                kept_rows.append((cid, kept))

        self._allocate(new_sizes, new_sizes)
        for cid, kept in kept_rows:
            self._write_block(
                cid,
                0,
                old_bits[kept],
                old_consts[:, kept],
                remap[old_slots[kept]],
            )


__all__ = ["CodeArena"]
