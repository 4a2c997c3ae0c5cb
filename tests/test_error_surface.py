"""The library-wide error surface: every intentional error is a ReproError.

``src/repro/index/`` and ``src/repro/io/`` already raised only
``repro.exceptions`` types; this suite pins that contract (so a refactor
cannot silently regress it) and extends it to the substrates layer, whose
parameter-validation errors — previously raw ``ValueError`` — now raise
:class:`InvalidParameterError`.  For backward compatibility
``InvalidParameterError`` also derives from ``ValueError``, so pre-existing
``except ValueError`` call sites keep working.

One intentional non-ReproError raise remains and is pinned here:
``ensure_rng`` raises ``TypeError`` for non-seed *types* (a genuine type
error, covered by ``tests/test_rng.py``).

Hostile *values* fail typed and early too: a NaN or infinite coordinate is
an ``InvalidParameterError`` at ``fit``, ``insert`` (before the index or
the journal is touched), ``search``, ``search_batch`` and ``submit``, and
in every KMeans fit (``kmeans_fit``, ``KMeans``, ``IVFIndex`` and the
PQ / OPQ / LSQ codebooks) before any seeding draw, and so
is a non-integral ``k`` / ``nprobe``, and so are fractional, bool or
non-finite sizes at construction (``n_clusters``, a re-rank count, the
serving engine's batch, queue and window) and row indices that are not
integers in range.  What must keep working is pinned
next to them: an all-zero query, and a dimension that is not a multiple
of 64.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines.lsq import AdditiveQuantizer
from repro.baselines.opq import OptimizedProductQuantizer
from repro.baselines.pq import ProductQuantizer
from repro.core.config import RaBitQConfig
from repro.core.quantizer import RaBitQ
from repro.exceptions import (
    AdmissionRejectedError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
    JournalError,
    NotFittedError,
    PersistenceError,
    ReproError,
    ServingError,
)
from repro.index.arena import CodeArena
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFIndex
from repro.index.rerank import ErrorBoundReranker, TopCandidateReranker
from repro.index.searcher import IVFQuantizedSearcher
from repro.io.persistence import load_searcher
from repro.metrics.timing import LatencyRecorder
from repro.serving import BudgetController, ServingEngine
from repro.substrates import linalg, rng as rng_utils
from repro.substrates.kmeans import KMeans, kmeans_fit


class TestExceptionHierarchy:
    def test_all_types_are_repro_errors(self):
        for exc in (
            NotFittedError,
            DimensionMismatchError,
            InvalidParameterError,
            EmptyDatasetError,
            PersistenceError,
        ):
            assert issubclass(exc, ReproError)

    def test_invalid_parameter_is_also_value_error(self):
        # Backward compatibility: callers that predate the error surface
        # caught ValueError for bad parameters.
        assert issubclass(InvalidParameterError, ValueError)

    def test_journal_error_is_a_persistence_error(self):
        # Journal problems are archive problems: callers handling
        # PersistenceError must also catch a mismatched/foreign journal.
        assert issubclass(JournalError, PersistenceError)
        assert issubclass(JournalError, ReproError)

    def test_admission_rejection_is_a_serving_error(self):
        # Load shedding is a serving-layer concern: callers handling
        # ServingError must also see rejections, and callers retrying on
        # rejection must not accidentally swallow engine failures.
        assert issubclass(ServingError, ReproError)
        assert issubclass(AdmissionRejectedError, ServingError)
        assert not issubclass(ServingError, AdmissionRejectedError)


@functools.lru_cache(maxsize=1)
def _fitted_searcher() -> IVFQuantizedSearcher:
    """One cached tiny searcher for entry-point validation cases."""
    data = np.random.default_rng(31).standard_normal((60, 6))
    return IVFQuantizedSearcher(
        "rabitq", n_clusters=3, rabitq_config=RaBitQConfig(seed=1), rng=4
    ).fit(data)


def _engine_submit(query, k, *, nprobe=8, deadline=None, depth=4):
    """Submit one request on a throwaway engine, always closing the worker."""
    engine = ServingEngine(_fitted_searcher(), max_queue_depth=depth)
    try:
        return engine.submit(query, k, nprobe=nprobe, deadline=deadline)
    finally:
        engine.close()


def _submit_after_close():
    engine = ServingEngine(_fitted_searcher())
    engine.close()
    return engine.submit(np.ones(6), 1)


def _poisoned(value: float, rows: int | None = None) -> np.ndarray:
    """A 6-d query (or ``rows`` of them) with one hostile coordinate."""
    out = np.ones(6) if rows is None else np.ones((rows, 6))
    out[..., 2] = value
    return out


def _poisoned_row(value: float) -> np.ndarray:
    """20 random 6-d training rows, the last with one hostile coordinate."""
    out = np.random.default_rng(5).standard_normal((20, 6))
    out[-1, 2] = value
    return out


def _fit_on(data):
    return IVFQuantizedSearcher("rabitq", n_clusters=2, rng=0).fit(data)


@functools.lru_cache(maxsize=1)
def _fitted_quantizer() -> RaBitQ:
    return RaBitQ(RaBitQConfig(seed=1)).fit(
        np.random.default_rng(32).standard_normal((20, 6))
    )


def _estimate(call, subset):
    quantizer = _fitted_quantizer()
    if call == "single":
        return quantizer.estimate_distances(np.ones(6), subset=subset)
    return quantizer.estimate_distances_batch(np.ones((2, 6)), subset=subset)


def _empty_percentile():
    return LatencyRecorder().percentile(50.0)


def _bad_sample():
    return LatencyRecorder().record(float("nan"))


# (callable, expected exception) pairs spanning the index/io/substrates
# public surface; each must raise the pinned repro.exceptions type.
_CASES = [
    # index/
    ("flat empty", lambda: FlatIndex(np.empty((0, 4))), EmptyDatasetError),
    (
        "flat bad k",
        lambda: FlatIndex(np.ones((3, 2))).search(np.ones(2), 0),
        InvalidParameterError,
    ),
    (
        "flat dim mismatch",
        lambda: FlatIndex(np.ones((3, 2))).search(np.ones(5), 1),
        DimensionMismatchError,
    ),
    ("ivf unfitted", lambda: IVFIndex().probe(np.ones(3), 1), NotFittedError),
    (
        "ivf bad nprobe",
        lambda: IVFIndex(2, rng=0).fit(np.eye(4)).probe(np.ones(4), 0),
        InvalidParameterError,
    ),
    (
        "ivf bad metric",
        lambda: IVFIndex(2, rng=0).fit(np.eye(4)).probe(
            np.ones(4), 1, metric="manhattan"
        ),
        InvalidParameterError,
    ),
    ("arena bad clusters", lambda: CodeArena(0, 64), InvalidParameterError),
    ("arena bad consts", lambda: CodeArena(1, 64, 2), InvalidParameterError),
    (
        "reranker bad k",
        lambda: ErrorBoundReranker().rerank(
            np.ones(2), np.empty(0, np.int64), None, None, 0
        ),
        InvalidParameterError,
    ),
    (
        "top candidate bad count",
        lambda: TopCandidateReranker(0),
        InvalidParameterError,
    ),
    # Sizes are positive integers, checked at construction: a fraction
    # would be truncated and a bool read as 1.
    (
        "top candidate fractional count",
        lambda: TopCandidateReranker(2.5),
        InvalidParameterError,
    ),
    (
        "top candidate bool count",
        lambda: TopCandidateReranker(True),
        InvalidParameterError,
    ),
    (
        "ivf fractional clusters",
        lambda: IVFIndex(7.5),
        InvalidParameterError,
    ),
    ("ivf bool clusters", lambda: IVFIndex(True), InvalidParameterError),
    (
        "searcher fractional clusters",
        lambda: IVFQuantizedSearcher("rabitq", n_clusters=7.5),
        InvalidParameterError,
    ),
    (
        "searcher bool clusters",
        lambda: IVFQuantizedSearcher("rabitq", n_clusters=True),
        InvalidParameterError,
    ),
    (
        "searcher bad kind",
        lambda: IVFQuantizedSearcher("pq"),
        InvalidParameterError,
    ),
    (
        "searcher bad metric",
        lambda: IVFQuantizedSearcher("rabitq", metric="hamming"),
        InvalidParameterError,
    ),
    (
        "searcher unfitted",
        lambda: IVFQuantizedSearcher("rabitq").search(np.ones(4), 1),
        NotFittedError,
    ),
    # Entry-point validation: search / search_batch / submit agree on the
    # exact type for k < 1, nprobe < 1 and wrong-dimension queries.
    (
        "searcher bad k",
        lambda: _fitted_searcher().search(np.ones(6), 0),
        InvalidParameterError,
    ),
    (
        "searcher bad nprobe",
        lambda: _fitted_searcher().search(np.ones(6), 1, nprobe=0),
        InvalidParameterError,
    ),
    (
        "searcher dim mismatch",
        lambda: _fitted_searcher().search(np.ones(9), 1),
        InvalidParameterError,
    ),
    (
        "searcher batch bad k",
        lambda: _fitted_searcher().search_batch(np.ones((2, 6)), -1),
        InvalidParameterError,
    ),
    (
        "searcher batch bad nprobe",
        lambda: _fitted_searcher().search_batch(np.ones((2, 6)), 1, nprobe=0),
        InvalidParameterError,
    ),
    (
        "searcher batch dim mismatch",
        lambda: _fitted_searcher().search_batch(np.ones((2, 9)), 1),
        InvalidParameterError,
    ),
    # Hostile values: non-finite coordinates, non-integral k / nprobe.
    (
        "searcher fractional k",
        lambda: _fitted_searcher().search(np.ones(6), 2.5),
        InvalidParameterError,
    ),
    (
        "searcher fractional nprobe",
        lambda: _fitted_searcher().search(np.ones(6), 2, nprobe=1.5),
        InvalidParameterError,
    ),
    (
        "searcher batch fractional k",
        lambda: _fitted_searcher().search_batch(np.ones((2, 6)), 2.5),
        InvalidParameterError,
    ),
    (
        "searcher bool k",
        lambda: _fitted_searcher().search(np.ones(6), True),
        InvalidParameterError,
    ),
    (
        "searcher batch bool nprobe",
        lambda: _fitted_searcher().search_batch(np.ones((2, 6)), 1, nprobe=True),
        InvalidParameterError,
    ),
    # Ids are integers: a float or string id is refused, never truncated.
    (
        "delete float id",
        lambda: _fitted_searcher().delete(1.7),
        InvalidParameterError,
    ),
    (
        "delete string ids",
        lambda: _fitted_searcher().delete(np.array(["5"])),
        InvalidParameterError,
    ),
    (
        "insert float ids",
        lambda: _fitted_searcher().insert(np.ones((1, 6)), ids=[300.9]),
        InvalidParameterError,
    ),
    *(
        (f"{entry} {label}", call, InvalidParameterError)
        for label, value in (
            ("nan", float("nan")),
            ("inf", float("inf")),
            ("-inf", float("-inf")),
        )
        for entry, call in (
            ("fit", lambda v=value: _fit_on(_poisoned(v, rows=8))),
            ("insert", lambda v=value: _fitted_searcher().insert(_poisoned(v, 2))),
            ("search", lambda v=value: _fitted_searcher().search(_poisoned(v), 1)),
            (
                "search_batch",
                lambda v=value: _fitted_searcher().search_batch(_poisoned(v, 3), 1),
            ),
            ("submit", lambda v=value: _engine_submit(_poisoned(v), 1)),
        )
    ),
    # Non-finite training data fails before k-means++ seeding on every path
    # into KMeans (it used to surface as NumPy's bare "Probabilities contain
    # NaN" ValueError); a sampled IVF fit checks the rows outside its sample.
    *(
        (f"{entry} {label}", call, InvalidParameterError)
        for label, value in (
            ("nan", float("nan")),
            ("inf", float("inf")),
            ("-inf", float("-inf")),
        )
        for entry, call in (
            ("kmeans_fit", lambda v=value: kmeans_fit(_poisoned(v, rows=8), 2)),
            ("KMeans.fit", lambda v=value: KMeans(2).fit(_poisoned(v, rows=8))),
            ("IVFIndex.fit", lambda v=value: IVFIndex(2).fit(_poisoned_row(v))),
            (
                "IVFIndex.fit sampled",
                lambda v=value: IVFIndex(2).fit(
                    _poisoned_row(v), kmeans_sample_size=4
                ),
            ),
            ("PQ fit", lambda v=value: ProductQuantizer(2, 2).fit(_poisoned_row(v))),
            (
                "OPQ fit",
                lambda v=value: OptimizedProductQuantizer(2, 2).fit(_poisoned_row(v)),
            ),
            ("LSQ fit", lambda v=value: AdditiveQuantizer(2, 2).fit(_poisoned_row(v))),
        )
    ),
    # serving/
    (
        "submit bad k",
        lambda: _engine_submit(np.ones(6), 0),
        InvalidParameterError,
    ),
    (
        "submit bad nprobe",
        lambda: _engine_submit(np.ones(6), 1, nprobe=0),
        InvalidParameterError,
    ),
    (
        "submit fractional k",
        lambda: _engine_submit(np.ones(6), 2.5),
        InvalidParameterError,
    ),
    (
        "submit fractional nprobe",
        lambda: _engine_submit(np.ones(6), 2, nprobe=2.7),
        InvalidParameterError,
    ),
    (
        "submit bool k",
        lambda: _engine_submit(np.ones(6), True),
        InvalidParameterError,
    ),
    (
        "submit dim mismatch",
        lambda: _engine_submit(np.ones(9), 1),
        InvalidParameterError,
    ),
    (
        "submit expired deadline",
        lambda: _engine_submit(np.ones(6), 1, deadline=-0.5),
        AdmissionRejectedError,
    ),
    ("submit after close", _submit_after_close, ServingError),
    (
        "engine bad max_batch",
        lambda: ServingEngine(_fitted_searcher(), max_batch=0),
        InvalidParameterError,
    ),
    *(
        (
            f"engine {label}",
            lambda kw=kwargs: ServingEngine(_fitted_searcher(), **kw),
            InvalidParameterError,
        )
        for label, kwargs in (
            # An infinite or huge window used to kill the worker at its
            # first wait; NaN silently disabled the window.
            ("infinite delay", {"max_delay_us": float("inf")}),
            ("huge delay", {"max_delay_us": 1e30}),
            ("nan delay", {"max_delay_us": float("nan")}),
            ("fractional max_batch", {"max_batch": 2.5}),
            ("nan max_batch", {"max_batch": float("nan")}),
            ("fractional queue depth", {"max_queue_depth": 1.5}),
        )
    ),
    (
        "budget bad alpha",
        lambda: BudgetController(alpha=0.0),
        InvalidParameterError,
    ),
    (
        "budget bad request",
        lambda: BudgetController().effective_nprobe(0, None),
        InvalidParameterError,
    ),
    # core/: row indices are integers in [0, n) — a fraction would be
    # truncated, a negative would wrap to the last row.
    *(
        (
            f"rabitq {call} {label}",
            functools.partial(_estimate, call, subset),
            InvalidParameterError,
        )
        for call in ("single", "batch")
        for label, subset in (
            ("fractional subset", [1.5]),
            ("negative subset", [-1]),
            ("out-of-range subset", [10**6]),
        )
    ),
    # metrics/
    ("latency bad sample", _bad_sample, InvalidParameterError),
    ("latency empty percentile", _empty_percentile, EmptyDatasetError),
    # io/
    ("load missing", lambda: load_searcher("/nonexistent/x.npz"), PersistenceError),
    # substrates/ (previously raw ValueError)
    ("spawn negative", lambda: rng_utils.spawn_rngs(0, -1), InvalidParameterError),
    (
        "probability range",
        lambda: rng_utils.check_probability(1.5),
        InvalidParameterError,
    ),
    (
        "unit vector dim",
        lambda: rng_utils.sample_unit_vector(0),
        InvalidParameterError,
    ),
    (
        "unit vectors count",
        lambda: rng_utils.sample_unit_vectors(-1, 4),
        InvalidParameterError,
    ),
    (
        "gram schmidt dependent",
        lambda: linalg.gram_schmidt(np.array([[1.0, 0.0], [2.0, 0.0]])),
        InvalidParameterError,
    ),
]


@pytest.mark.parametrize("name, call, expected", _CASES, ids=[c[0] for c in _CASES])
def test_public_surface_raises_repro_errors(name, call, expected):
    with pytest.raises(expected) as excinfo:
        call()
    assert isinstance(excinfo.value, ReproError)


def test_non_finite_kmeans_data_is_refused_before_seeding():
    generator = np.random.default_rng(0)
    state = generator.bit_generator.state
    with pytest.raises(InvalidParameterError, match="finite"):
        kmeans_fit(_poisoned_row(float("nan")), 3, rng=generator)
    assert generator.bit_generator.state == state


def test_rejected_insert_leaves_index_and_journal_untouched(tmp_path):
    from repro.io import default_journal_path, load_searcher, save_searcher

    path = tmp_path / "idx.rbq"
    save_searcher(_fit_on(np.random.default_rng(5).standard_normal((40, 6))), path)
    searcher = load_searcher(path, journal=True)
    journal = default_journal_path(path)
    searcher.insert(np.ones((2, 6)))  # a good insert first: journal non-empty
    searcher.delete(np.array([0], dtype=np.uint32))  # unsigned ids are ids
    before = (
        journal.stat().st_size,
        searcher.live_ids.tolist(),
        searcher.n_total,
        len(searcher.flat),
        int(searcher.arena.n_rows),
    )
    good_query = searcher.search(np.ones(6), 3, nprobe=2)
    # Non-finite vectors, and ids or sizes that are not integers (a float
    # or string id would otherwise be truncated to a live one).
    for call in (
        lambda: searcher.insert(_poisoned(float("nan"), rows=3)),
        lambda: searcher.insert(_poisoned(float("inf"), rows=3)),
        lambda: searcher.insert(np.ones((1, 6)), ids=[300.9]),
        lambda: searcher.delete(1.7),
        lambda: searcher.delete(np.array(["5"])),
        lambda: searcher.delete(True),
        lambda: searcher.search(np.ones(6), k=True),
    ):
        with pytest.raises(InvalidParameterError):
            call()
        assert before == (
            journal.stat().st_size,
            searcher.live_ids.tolist(),
            searcher.n_total,
            len(searcher.flat),
            int(searcher.arena.n_rows),
        )
    again = searcher.search(np.ones(6), 3, nprobe=2)
    np.testing.assert_array_equal(again.ids, good_query.ids)
    np.testing.assert_array_equal(again.distances, good_query.distances)
    # Recovery replays exactly the acknowledged insert and delete.
    recovered = load_searcher(path, journal=True)
    assert recovered.live_ids.tolist() == searcher.live_ids.tolist()


def test_insert_failing_in_the_encoder_changes_nothing(tmp_path, monkeypatch):
    # An insert is all or nothing: an encoder failure (here a MemoryError)
    # must not leave rows in the flat index or buckets without codes.
    from repro.index import searcher as searcher_module
    from repro.io import default_journal_path, load_searcher, save_searcher

    path = tmp_path / "idx.rbq"
    save_searcher(_fit_on(np.random.default_rng(6).standard_normal((40, 6))), path)
    searcher = load_searcher(path, journal=True)
    journal = default_journal_path(path)
    searcher.insert(np.random.default_rng(7).standard_normal((2, 6)))

    def state():
        return (
            searcher.n_total,
            searcher.live_ids.tolist(),
            searcher.ivf.assignments.tolist(),
            {k: v.tobytes() for k, v in searcher.arena.dump_tight().items()},
            journal.stat().st_size,
        )

    def encoder_out_of_memory(*args, **kwargs):
        raise MemoryError("encoder out of memory")

    before = state()
    with monkeypatch.context() as patch:
        patch.setattr(searcher_module, "encode_rows", encoder_out_of_memory)
        with pytest.raises(MemoryError):
            searcher.insert(np.random.default_rng(8).standard_normal((5, 6)))
    assert state() == before
    rows = np.random.default_rng(9).standard_normal((3, 6))
    assert searcher.insert(rows).tolist() == [42, 43, 44]
    assert searcher.search(rows[1], 1, nprobe=2).ids.tolist() == [43]
    recovered = load_searcher(path, journal=True)
    assert recovered.live_ids.tolist() == searcher.live_ids.tolist()


def test_zero_query_and_odd_dimension_are_served():
    # All-zero query: a zero residual norm is a legitimate input.
    searcher = _fitted_searcher()
    for result in (
        searcher.search(np.zeros(6), 3, nprobe=2),
        searcher.search_batch(np.zeros((2, 6)), 3, nprobe=2)[1],
        _engine_submit(np.zeros(6), 3, nprobe=2),
    ):
        assert result.ids.shape == (3,)
        assert np.isfinite(result.distances).all()
    # A dimension that is not a multiple of 64 is padded, not refused.
    data = np.random.default_rng(8).standard_normal((80, 20))
    odd = _fit_on(data)
    assert odd.dim == 20 and odd.arena.code_length == 64
    assert odd.search(data[3], 1, nprobe=2).ids.tolist() == [3]
    odd.insert(np.random.default_rng(9).standard_normal((4, 20)))
    assert odd.search_batch(data[:5], 2, nprobe=2)[4].ids[0] == 4


def test_ensure_rng_type_error_is_intentional():
    # Non-seed *types* are a TypeError by design (see module docstring).
    with pytest.raises(TypeError):
        rng_utils.ensure_rng("not-a-seed")


class TestDurableArchiveErrors:
    """Journal attach fails as a ReproError."""

    def test_foreign_journal_uuid_is_journal_error(self, tmp_path):
        from repro.core.config import RaBitQConfig
        from repro.io import default_journal_path, load_searcher, save_searcher

        data = np.random.default_rng(22).standard_normal((90, 8))
        paths = []
        for name in ("a.rbq", "b.rbq"):
            searcher = IVFQuantizedSearcher(
                "rabitq",
                n_clusters=3,
                rabitq_config=RaBitQConfig(seed=2),
                rng=6,
            ).fit(data)
            path = tmp_path / name
            save_searcher(searcher, path)
            paths.append(path)
        # Journal some mutations against archive A, then plant A's journal
        # next to archive B: the uuid chain must reject it loudly instead
        # of replaying foreign mutations.
        live = load_searcher(paths[0], journal=True)
        live.insert(np.random.default_rng(23).standard_normal((4, 8)))
        journal_a = default_journal_path(paths[0])
        journal_b = default_journal_path(paths[1])
        journal_b.write_bytes(journal_a.read_bytes())
        with pytest.raises(JournalError):
            load_searcher(paths[1], journal=True)
        # JournalError *is* a PersistenceError, so generic handlers work.
        with pytest.raises(PersistenceError):
            load_searcher(paths[1], journal=True)
