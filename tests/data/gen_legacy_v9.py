#!/usr/bin/env python
"""Regenerate the committed searcher-format-v9 archives (``v9_*.rbq``).

Format v9 is the parent of the current searcher format (v10): it keeps
the query generator states in the header and stores no rounding vector.
This build writes v10 only, so the v9 archives were written once by a
tree that still had the test-only ``_format_version`` hook on
``repro.io.persistence._save_searcher_v6`` — commit ``aaf8be8`` — and are
committed under ``tests/data/``:

* ``v9_l2_b1.rbq`` — ``metric="l2"``, ``B = 1``, with the 3-record
  journal ``v9_l2_b1.rbq.journal`` (insert, delete, compact) bound to it;
* ``v9_ip_b4.rbq`` — ``metric="ip"``, ``B = 4``.

Both use the Hadamard rotation and carry tombstones and a non-trivial id
map.  ``tests/test_legacy_archives.py`` builds the same scenarios with
:func:`build` / :func:`mutate` below and requires every load of a fixture
to answer exactly like that twin.  To regenerate, check out ``aaf8be8``
and run this script there::

    git checkout aaf8be8 && PYTHONPATH=src python tests/data/gen_legacy_v9.py
"""

from __future__ import annotations

import inspect
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import RaBitQConfig  # noqa: E402
from repro.index.searcher import IVFQuantizedSearcher  # noqa: E402

OUT = Path(__file__).resolve().parent

#: The last commit that writes (and reads) searcher formats v6–v9.
WRITER_COMMIT = "aaf8be8"

#: Scenario constants, shared with tests/test_legacy_archives.py.
N, DIM, N_CLUSTERS = 80, 16, 4
K, NPROBE = 5, 2
CONFIG_SEED, SEARCHER_SEED = 3, 17

#: archive name -> (metric, bits)
ARCHIVES = {"v9_l2_b1.rbq": ("l2", 1), "v9_ip_b4.rbq": ("ip", 4)}
#: The archive whose journal is committed with it.
JOURNALED = "v9_l2_b1.rbq"

_rng = np.random.default_rng(71)
DATA = _rng.standard_normal((N, DIM)) + 0.2
EXTRA = _rng.standard_normal((6, DIM)) + 0.2
LATER = _rng.standard_normal((5, DIM)) + 0.2
QUERIES = _rng.standard_normal((6, DIM)) + 0.2


def build(metric: str, bits: int) -> IVFQuantizedSearcher:
    """The archived state: fit, then insert and delete (tombstones, id map)."""
    searcher = IVFQuantizedSearcher(
        "rabitq",
        n_clusters=N_CLUSTERS,
        rabitq_config=RaBitQConfig(
            seed=CONFIG_SEED, bits=bits, rotation="hadamard"
        ),
        rng=SEARCHER_SEED,
        metric=metric,
    ).fit(DATA)
    searcher.insert(EXTRA)
    searcher.delete(np.arange(0, 30, 7))
    return searcher


def mutate(searcher: IVFQuantizedSearcher) -> None:
    """The journaled mutations: one insert, one delete, one compact."""
    searcher.insert(LATER)
    searcher.delete(searcher.live_ids[::9])
    searcher.compact()


def _writer():
    """The v6–v9 writer hook, or exit naming the commit that has it."""
    try:
        from repro.io import persistence
        from repro.io.persistence import _save_searcher_v6
    except ImportError:
        _save_searcher_v6 = None
    if _save_searcher_v6 is None or (
        "_format_version" not in inspect.signature(_save_searcher_v6).parameters
    ):
        sys.exit(
            f"{Path(__file__).name}: this tree cannot write searcher format "
            f"v9 (no _format_version hook on "
            f"repro.io.persistence._save_searcher_v6); check out commit "
            f"{WRITER_COMMIT} and run this script there"
        )
    return persistence, _save_searcher_v6


def main() -> None:
    persistence, save_v9 = _writer()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (metric, bits) in ARCHIVES.items():
            path = Path(tmp) / name
            save_v9(build(metric, bits), path, _format_version=9)
            if name == JOURNALED:
                loaded = persistence.load_searcher(path, journal=True)
                mutate(loaded)
                loaded._journal.close()
            for written in Path(tmp).glob(name + "*"):
                shutil.copyfile(written, OUT / written.name)
                print(f"wrote {OUT / written.name} ({written.stat().st_size} B)")


if __name__ == "__main__":
    main()
