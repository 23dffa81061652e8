"""Counters for the compiled backend.

One :class:`BackendStats` instance accompanies each CLI invocation or
service that executes residuals through :mod:`repro.backend`; the shadow
verifier (:func:`repro.backend.verify.shadow_run`) reports every
compiled-vs-interpreted comparison into it.  ``mismatches`` staying at
zero across the differential and golden suites is an acceptance
criterion of the backend, so the counter is first-class and lands in
the ``--profile`` report under ``stats.backend``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BackendStats:
    """Counters for one backend user (CLI run, service, benchmark)."""

    #: Residual programs lowered + compiled to Python.
    compiles: int = 0
    #: Wall-clock spent lowering/compiling (not executing).
    compile_seconds: float = 0.0
    #: Entry-point executions through compiled code.
    compiled_runs: int = 0
    #: Compiled artifacts rehydrated from a cache instead of recompiled.
    artifact_reuses: int = 0

    #: Shadow-mode comparisons (one compiled + one interpreted run).
    shadow_runs: int = 0
    #: Comparisons where either engine hit a resource limit
    #: (:class:`~repro.lang.errors.FuelExhausted`): no verdict.
    shadow_inconclusive: int = 0
    #: Divergences between the engines.  Must stay at zero.
    mismatches: int = 0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the ``stats.backend`` section of the
        ``--profile`` report)."""
        return {
            "compiles": self.compiles,
            "compile_seconds": round(self.compile_seconds, 6),
            "compiled_runs": self.compiled_runs,
            "artifact_reuses": self.artifact_reuses,
            "shadow_runs": self.shadow_runs,
            "shadow_inconclusive": self.shadow_inconclusive,
            "mismatches": self.mismatches,
        }
