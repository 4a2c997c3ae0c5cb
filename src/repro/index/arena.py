"""Contiguous code arena: cluster-grouped storage for quantized codes.

The :class:`CodeArena` keeps the codes of every IVF cluster in one
contiguous, cluster-grouped layout that stores every code once:

* ``codes`` — one ``(capacity, bits * n_words)`` ``uint64`` matrix of
  packed code words, ``n_words = ceil(code_length / 64)``: each row is
  :func:`repro.core.bitops.pack_level_planes` of the code's levels, ``B``
  bit-planes laid out plane-major (the paper's ``D``-bit string at
  ``B = 1``).  This is the one resident form: the integer-dot kernel
  :func:`repro.core.bitops.binary_dot_uint_batch` reads it directly, and
  the archive's ``arena_codes`` section is the same matrix;
* ``consts`` — one ``(n_stored, capacity)`` float64 matrix of the stored
  estimator constants (:func:`repro.core.estimator.stored_code_consts`:
  ``||o_r - c||`` and ``<o_bar, o>``, plus ``<o_r, c>`` and ``||o_r||``
  under ip / cosine and the rescale of a ``B > 1`` code), stored
  constants-major so each constant's slice over a cluster is contiguous.
  The estimator's other constants are derived from these, the codes and
  the index's ``epsilon0`` when a query reads them (:meth:`consts_view`),
  so a code of ``D = 128`` at ``B = 1`` under l2 costs 16 B of words and
  16 B of constants;
* ``slots`` — the searcher slot id of every arena row (8 B each; a
  :class:`repro.core.quantizer.RaBitQ` arena, whose row ``i`` is slot
  ``i``, stores none);
* a CSR-style region table (``starts`` / ``sizes`` / ``caps``) mapping each
  cluster to its contiguous row range.

Probing a cluster therefore reads contiguous slices of ``codes`` /
``consts`` / ``slots``.  Row order inside a cluster region always equals
the IVF bucket's id order (ascending slot id).
:meth:`CodeArena.cluster_bits` unpacks a cluster's levels on demand; no
query needs them.

The arena is built tight (:meth:`CodeArena.from_sections`, both at fit,
which encodes in row blocks, and at load) and maintained incrementally
across the index lifecycle.  Cluster regions carry geometric capacity
slack, and :meth:`CodeArena.append` takes a whole insert batch at once,
whatever clusters its rows belong to: one scatter, at most one re-layout
per insert (a single vectorized gather that grows every overflowing region,
amortized O(1) copies per appended row).  :meth:`CodeArena.compact` drops
tombstoned rows with the same gather and renumbers the surviving slots.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitops import unpack_level_planes
from repro.core.config import DEFAULT_EPSILON0
from repro.core.estimator import N_CONSTS, N_DERIVED, derive_code_consts
from repro.exceptions import DimensionMismatchError, InvalidParameterError

#: Extra capacity factor applied to a cluster region when it overflows.
_GROWTH_FACTOR = 2.0


class CodeArena:
    """Contiguous cluster-grouped storage of packed codes + stored constants.

    Parameters
    ----------
    n_clusters:
        Number of cluster regions.
    code_length:
        Code length in dimensions (bits per code plane).
    n_consts:
        Rows of the estimator's view of a code —
        :func:`repro.core.estimator.n_consts_for` of the served metric and
        code width (``N_CONSTS`` for binary squared-L2 serving, the
        default).  ``consts`` stores ``n_stored = n_consts - N_DERIVED``
        of them.
    bits:
        Code width ``B``: bit-planes per code.
    epsilon0:
        The index's confidence parameter, which the derived half-widths
        are computed for (default: the paper's, as in
        :class:`repro.core.config.RaBitQConfig`).
    """

    __slots__ = (
        "codes",
        "consts",
        "slots",
        "starts",
        "sizes",
        "caps",
        "code_length",
        "n_consts",
        "bits",
        "epsilon0",
    )

    def __init__(
        self,
        n_clusters: int,
        code_length: int,
        n_consts: int = N_CONSTS,
        bits: int = 1,
        *,
        epsilon0: float = DEFAULT_EPSILON0,
    ) -> None:
        if n_clusters <= 0:
            raise InvalidParameterError("n_clusters must be positive")
        if n_consts < N_CONSTS:
            raise InvalidParameterError(
                f"n_consts must be at least {N_CONSTS}"
            )
        self.code_length = int(code_length)
        self.n_consts = int(n_consts)
        self.bits = int(bits)
        self.epsilon0 = float(epsilon0)
        self.codes = np.empty((0, self.n_words), dtype=np.uint64)
        self.consts = np.empty((self.n_stored, 0), dtype=np.float64)
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
    def n_words(self) -> int:
        """Packed ``uint64`` words per code (all planes)."""
        return self.bits * -(-self.code_length // 64)

    @property
    def n_stored(self) -> int:
        """Stored constants per code (rows of ``consts``)."""
        return self.n_consts - N_DERIVED

    @property
    def n_rows(self) -> int:
        """Number of stored codes (live regions, excluding slack)."""
        return int(self.sizes.sum())

    def memory_bytes(self) -> int:
        """Arena footprint: code words, stored constants and slot ids."""
        return int(self.codes.nbytes + self.consts.nbytes + self.slots.nbytes)

    def cluster_range(self, cid: int) -> tuple[int, int]:
        """``(start, end)`` row range of cluster ``cid``'s live rows."""
        start = int(self.starts[cid])
        return start, start + int(self.sizes[cid])

    def cluster_bits(self, cid: int) -> np.ndarray:
        """Code levels of cluster ``cid``, unpacked: ``(size, code_length)``
        ``uint8`` (0/1 at ``B = 1``, ``[0, 2^B - 1]`` above it)."""
        start, end = self.cluster_range(cid)
        return unpack_level_planes(
            self.codes[start:end], self.code_length, self.bits
        )

    def rows_of(self, cluster_ids: np.ndarray) -> np.ndarray:
        """Arena rows of the given clusters' codes, cluster by cluster."""
        return _region_rows(self.starts[cluster_ids], self.sizes[cluster_ids])

    def cluster_consts(self, cid: int) -> np.ndarray:
        """The estimator's view of cluster ``cid``, ``(n_consts, size)``."""
        start, end = self.cluster_range(cid)
        return self.consts_view(slice(start, end))

    def consts_view(
        self, rows, codes: np.ndarray | None = None, *, epsilon0=None
    ) -> np.ndarray:
        """The estimator's view of arena ``rows`` (an index array or a slice).

        One :func:`repro.core.estimator.derive_code_consts` call over the
        rows' stored constants and codes; ``codes`` passes the rows' words
        when the caller has gathered them already.  ``epsilon0`` overrides
        the index's for the half-width row.
        """
        if isinstance(rows, slice):
            stored, columns = self.consts[:, rows], None
            if codes is None:
                codes = self.codes[rows]
        else:
            stored, columns = self.consts, rows
            if codes is None:
                codes = self.codes.take(rows, axis=0)
        eps = self.epsilon0 if epsilon0 is None else epsilon0
        return derive_code_consts(
            stored, codes, self.code_length, self.bits, eps, columns=columns
        )

    # ------------------------------------------------------------------ #
    # Construction and mutation
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sections(
        cls,
        code_length: int,
        n_consts: int,
        *,
        codes: np.ndarray,
        consts: np.ndarray,
        slots: np.ndarray | None,
        sizes: np.ndarray,
        bits: int = 1,
        epsilon0: float = DEFAULT_EPSILON0,
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

        ``slots=None`` builds an arena without a slot map (row ``i`` is
        slot ``i``): a read-only store, which :class:`RaBitQ` keeps; it is
        never appended to or compacted.
        """
        sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
        if sizes.shape[0] == 0:
            raise InvalidParameterError("n_clusters must be positive")
        if sizes.min(initial=0) < 0:
            raise InvalidParameterError("cluster sizes must be non-negative")
        arena = cls(sizes.shape[0], code_length, n_consts, bits, epsilon0=epsilon0)
        total = int(sizes.sum())
        sections = [
            ("codes", codes, (total, arena.n_words)),
            ("consts", consts, (arena.n_stored, total)),
        ]
        if slots is not None:
            sections.append(("slots", slots, (total,)))
        for name, array, expected in sections:
            if tuple(array.shape) != expected:
                raise DimensionMismatchError(
                    f"arena section {name!r} has shape {tuple(array.shape)}, "
                    f"expected {expected}"
                )
        if codes.dtype.kind != "u" or codes.dtype.itemsize != 8:
            raise InvalidParameterError(
                f"arena codes must be uint64 words, got {codes.dtype}"
            )
        arena.codes = codes
        arena.consts = consts
        if slots is not None:
            arena.slots = slots
        arena.sizes = sizes.copy()
        arena.caps = sizes.copy()
        arena.starts = np.cumsum(sizes) - sizes
        return arena

    def dump_tight(self) -> dict[str, np.ndarray]:
        """Slack-free copies of the backing arrays, in cluster-grouped order.

        Returns ``codes`` / ``consts`` / ``slots`` plus the per-cluster
        ``sizes`` — exactly the layout :meth:`from_sections` adopts, so a
        dump → load round trip reproduces the arena's live rows
        bit-identically (capacity slack is the only thing dropped).
        """
        rows = _region_rows(self.starts, self.sizes)
        return {
            "codes": np.ascontiguousarray(self.codes.take(rows, axis=0)),
            "consts": np.ascontiguousarray(self.consts.take(rows, axis=1)),
            "slots": np.ascontiguousarray(self.slots.take(rows)),
            "sizes": self.sizes.copy(),
        }

    def append(
        self,
        cluster_ids: np.ndarray,
        codes: np.ndarray,
        consts: np.ndarray,
        slots: np.ndarray,
    ) -> None:
        """Append encoded rows, row ``i`` to cluster ``cluster_ids[i]``'s region.

        Rows keep their given order inside each region.  Every region the
        call overflows grows under one rule — to ``max(need, 2 * need, 8)``
        rows — and the arena re-lays out at most once per call (one gather
        into fresh arrays, amortized O(1) copies per appended row); all
        rows then land with one scatter.
        """
        clusters = np.asarray(cluster_ids, dtype=np.int64).reshape(-1)
        n_new = clusters.shape[0]
        if codes.shape != (n_new, self.n_words) or consts.shape != (
            self.n_stored,
            n_new,
        ):
            raise DimensionMismatchError(
                "appended codes do not match the arena's code words and "
                "constants, one row per cluster id"
            )
        if n_new == 0:
            return
        if clusters.min() < 0 or clusters.max() >= self.n_clusters:
            raise InvalidParameterError("cluster_ids reference unknown clusters")
        counts = np.bincount(clusters, minlength=self.n_clusters)
        need = self.sizes + counts
        over = need > self.caps
        if over.any():
            grown = np.maximum(need, (_GROWTH_FACTOR * need).astype(np.int64))
            caps = np.where(over, np.maximum(grown, 8), self.caps)
            self._relayout(_region_rows(self.starts, self.sizes), self.sizes, caps)
        # Row i's rank among the new rows of its cluster, in call order.
        order = np.argsort(clusters, kind="stable")
        ranks = np.empty(n_new, dtype=np.int64)
        ranks[order] = np.arange(n_new) - np.repeat(np.cumsum(counts) - counts, counts)
        dst = self.starts[clusters] + self.sizes[clusters] + ranks
        self.codes[dst] = codes
        self.consts[:, dst] = consts
        self.slots[dst] = slots
        self.sizes = need

    def _relayout(self, rows: np.ndarray, sizes: np.ndarray, caps: np.ndarray) -> None:
        """Move the stored ``rows`` into fresh arrays with capacities ``caps``.

        ``rows`` lists arena rows in cluster order, ``sizes[cid]`` of them
        per cluster; one gather reads them and one scatter writes them to
        the heads of the new regions.  Slack rows hold zeros and slot -1.
        The new arrays are complete before any attribute changes.
        """
        caps = caps.astype(np.int64, copy=True)
        starts = np.cumsum(caps) - caps
        total = int(caps.sum())
        codes = np.zeros((total, self.n_words), dtype=np.uint64)
        consts = np.zeros((self.n_stored, total), dtype=np.float64)
        slots = np.full(total, -1, dtype=np.int64)
        dst = _region_rows(starts, sizes)
        codes[dst] = self.codes.take(rows, axis=0)
        consts[:, dst] = self.consts.take(rows, axis=1)
        slots[dst] = self.slots.take(rows)
        self.codes, self.consts, self.slots = codes, consts, slots
        self.starts, self.caps = starts, caps
        self.sizes = sizes.astype(np.int64, copy=True)

    def compact(self, keep_slot: np.ndarray) -> None:
        """Drop rows whose slot is marked dead and renumber surviving slots.

        ``keep_slot`` is a boolean mask over *searcher slots* (``True`` =
        live).  Surviving rows keep their relative order inside each cluster
        region, and their slot ids are remapped to the slot's position among
        the survivors — the same renumbering the flat and IVF indexes apply
        during tombstone compaction.  The survivors move with the same
        one-gather re-layout as :meth:`append`, into tight regions.
        """
        mask = np.asarray(keep_slot, dtype=bool).reshape(-1)
        rows = _region_rows(self.starts, self.sizes)
        kept = mask[self.slots[rows]]
        owners = np.repeat(np.arange(self.n_clusters), self.sizes)
        sizes = np.bincount(owners[kept], minlength=self.n_clusters)
        self._relayout(rows[kept], sizes, sizes)
        self.slots = np.cumsum(mask, dtype=np.int64)[self.slots] - 1


def _region_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Arena row of every stored code, region by region, in cluster order."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - sizes), sizes)


__all__ = ["CodeArena"]
