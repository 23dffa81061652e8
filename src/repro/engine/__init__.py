"""Engine-wide infrastructure: resource budgets and the failure taxonomy.

This package sits *below* the individual engines (``repro.online``,
``repro.offline``, ``repro.baselines``) and above nothing: it has no
dependencies inside the repo, so every layer — the language substrate
included — can build on it without cycles.

* :mod:`repro.engine.budget` — the budget dimensions the specializers
  meter (the meter is the walk's run state,
  :class:`repro.online.walk.Ctx`) and the :class:`DegradeEvent`
  records they emit when they trade precision for termination;
* :mod:`repro.engine.errors` — the :class:`ReproError` taxonomy
  (``BudgetExhausted`` / ``SpecializationError`` / ``FacetError`` /
  ``ProgramError``) and the :func:`engine_guard` entry-point wrapper
  that keeps bare Python exceptions from escaping the engine.
"""

from repro.engine.budget import DIMENSIONS, DegradeEvent, STEP_STRIDE
from repro.engine.errors import (
    BudgetExhausted, FacetError, ProgramError, ReproError,
    SpecializationError, classify, engine_guard)

__all__ = [
    "BudgetExhausted", "DIMENSIONS", "DegradeEvent", "FacetError",
    "ProgramError", "ReproError", "SpecializationError", "STEP_STRIDE",
    "classify", "engine_guard",
]
