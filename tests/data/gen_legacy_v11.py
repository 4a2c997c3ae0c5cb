#!/usr/bin/env python
"""Regenerate the committed searcher-format-v11 archives (``v11_*.rbq``).

Format v11 is the parent of the current searcher format (v12): it stores
every row of the estimator's constants view (``n_consts`` counts them),
where v12 stores only the rows the estimator cannot derive.  This build
writes v12 only, so the v11 archives were written once by the last tree
whose ``save_searcher`` writes v11 — commit ``f7bf855`` — and are
committed under ``tests/data/``.  They cover the layouts the v9 fixtures
(``gen_legacy_v9.py``) do not:

* ``v11_l2_b4.rbq`` — ``metric="l2"``, ``B = 4`` (a stored rescale row
  after the l2 rows), with the 3-record journal ``v11_l2_b4.rbq.journal``
  (insert, delete, compact) bound to it;
* ``v11_cosine_b1.rbq`` — ``metric="cosine"``, ``B = 1``.

Both reuse the v9 fixtures' scenario (data, seeds, Hadamard rotation,
tombstones and a non-trivial id map: :func:`gen_legacy_v9.build` /
:func:`gen_legacy_v9.mutate`), and ``tests/test_legacy_archives.py``
requires every load of a fixture to answer exactly like the twin this
build makes from the same scenario.  To regenerate, check out ``f7bf855``
and run this script there::

    git checkout f7bf855 && PYTHONPATH=src python tests/data/gen_legacy_v11.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

OUT = Path(__file__).resolve().parent
_SRC = OUT.parents[1] / "src"
for _path in (_SRC, OUT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from gen_legacy_v9 import build, mutate  # noqa: E402
from repro.io import persistence  # noqa: E402

#: The last commit that writes searcher format v11.
WRITER_COMMIT = "f7bf855"

#: archive name -> (metric, bits)
ARCHIVES = {"v11_l2_b4.rbq": ("l2", 4), "v11_cosine_b1.rbq": ("cosine", 1)}
#: The archive whose journal is committed with it.
JOURNALED = "v11_l2_b4.rbq"


def main() -> None:
    if persistence.SEARCHER_FORMAT_VERSION != 11:
        sys.exit(
            f"{Path(__file__).name}: this tree writes searcher format "
            f"v{persistence.SEARCHER_FORMAT_VERSION}, not v11; check out "
            f"commit {WRITER_COMMIT} and run this script there"
        )
    with tempfile.TemporaryDirectory() as tmp:
        for name, (metric, bits) in ARCHIVES.items():
            path = Path(tmp) / name
            persistence.save_searcher(build(metric, bits), path)
            if name == JOURNALED:
                loaded = persistence.load_searcher(path, journal=True)
                mutate(loaded)
                loaded._journal.close()
            for written in Path(tmp).glob(name + "*"):
                shutil.copyfile(written, OUT / written.name)
                print(f"wrote {OUT / written.name} ({written.stat().st_size} B)")


if __name__ == "__main__":
    main()
