"""Fig. 3 — time/accuracy trade-off of distance estimation.

For each dataset panel the benchmark prints one row per (method, code length)
point: average relative error, maximum relative error and time per vector.
The paper's qualitative findings to look for in the output:

* RaBitQ at D bits is more accurate than PQ/OPQ at D bits (and typically
  competitive with their 2D-bit setting),
* RaBitQ's accuracy improves as the code is padded longer,
* on the MSong-like (variance-skewed) dataset PQ/OPQ degrade sharply while
  RaBitQ stays accurate.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_dataset, emit
from repro.experiments.distance_estimation import run_distance_estimation_experiment
from repro.experiments.report import format_table, rows_from_dataclasses

#: Datasets mirroring the six panels of Fig. 3.
FIG3_DATASETS = ("sift", "deep", "msong", "word2vec", "image", "gist")


@pytest.mark.parametrize("dataset_name", FIG3_DATASETS)
def test_fig3_distance_estimation(benchmark, dataset_name):
    """One Fig. 3 panel: accuracy/time of RaBitQ vs PQ vs OPQ."""
    dataset = bench_dataset(dataset_name)
    results = benchmark.pedantic(
        run_distance_estimation_experiment,
        kwargs={
            "dataset": dataset,
            "methods": ("rabitq", "pq", "opq"),
            "n_queries": 4,
            "code_length_factors": (1.0, 2.0),
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            rows_from_dataclasses(results),
            title=f"Figure 3 -- distance estimation trade-off on {dataset_name!r}",
        )
    )
    by_key = {(r.method, round(r.code_bits / dataset.dim)): r for r in results}
    rabitq = by_key.get(("rabitq", 1))
    pq = by_key.get(("pq", 1))
    if rabitq is not None and pq is not None:
        assert rabitq.avg_relative_error < pq.avg_relative_error
