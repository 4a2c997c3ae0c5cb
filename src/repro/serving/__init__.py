"""Online serving front end: request coalescing over the batch engine.

* :mod:`repro.serving.engine` — :class:`ServingEngine`, a thread-safe
  queue + worker that coalesces concurrent ``submit`` calls into
  ``search_batch`` micro-batches, with bounded-queue admission control.
  Every response equals a direct ``search`` call on the same searcher at
  the handle's ``nprobe_effective``, bit for bit.
* :mod:`repro.serving.budget` — :class:`BudgetController`, deadline-aware
  per-request ``nprobe`` degradation from an EWMA service-time model.

See the "Online serving" section of ``benchmarks/README.md`` for the
knob semantics and the single-CPU measurement caveats.
"""

from repro.serving.budget import BudgetController
from repro.serving.engine import PendingRequest, ServingEngine

__all__ = ["ServingEngine", "PendingRequest", "BudgetController"]
