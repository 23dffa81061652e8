"""Work counters for one specialization run.

``PEStats`` quantifies the paper's introduction: online systems pay
facet evaluations and reduce-or-residualize decisions at every program
point, offline systems move those decisions into the analysis.  The
counters deliberately measure the *cost model*, not the wall clock —
a facet-operator application counts as one evaluation even when the
suite's memoization layer served it from cache, so the accounting is
identical with caching on or off.  Wall-clock observations live in
``phase_seconds`` (filled by the specializers' phase timers) and in
:class:`repro.observability.cache_stats.CacheStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.budget import DegradeEvent

#: Degrade events kept verbatim per run; past the cap only the
#: per-reason counters grow (a pathological run can degrade at every
#: remaining call site).
MAX_RECORDED_DEGRADES = 64


@dataclass
class PEStats:
    """Work counters for one specialization run."""

    steps: int = 0
    #: How many facet operators ran (PE facet included) — the paper's
    #: online-cost complaint, quantified.
    facet_evaluations: int = 0
    prim_folds: int = 0
    #: Folds per producing facet name; ``"pe"`` is plain constant
    #: folding, anything else is a parameterized-PE win.
    folds_by_facet: dict = field(default_factory=dict)
    if_reductions: int = 0
    unfoldings: int = 0
    specializations: int = 0
    cache_hits: int = 0
    generalizations: int = 0
    #: PE-time *decisions*: reduce-or-residualize choices taken while
    #: specializing (what an offline strategy moves into the analysis).
    decisions: int = 0
    #: Variables refined by the constraint-propagation extension.
    constraint_refinements: int = 0
    #: Wall-clock seconds per phase ("specialize", "simplify", ...),
    #: excluded from the semantic accounting above.
    phase_seconds: dict = field(default_factory=dict)
    #: Graceful-degradation decisions taken under budget pressure
    #: (:class:`repro.engine.budget.DegradeEvent`); zero on any run
    #: whose budgets were not exhausted.
    degradations: int = 0
    degradations_by_reason: dict = field(default_factory=dict)
    degrade_events: list = field(default_factory=list)
    #: Budget usage snapshot ({"steps": ..., "residual_nodes": ...}),
    #: filled from the run's meter at run end.
    budget_used: dict = field(default_factory=dict)

    def record_fold(self, producer: str) -> None:
        self.prim_folds += 1
        self.folds_by_facet[producer] = \
            self.folds_by_facet.get(producer, 0) + 1

    def record_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = \
            self.phase_seconds.get(name, 0.0) + seconds

    def record_degrade(self, event: DegradeEvent) -> None:
        self.degradations += 1
        self.degradations_by_reason[event.reason] = \
            self.degradations_by_reason.get(event.reason, 0) + 1
        if len(self.degrade_events) < MAX_RECORDED_DEGRADES:
            self.degrade_events.append(event)

    def as_dict(self) -> dict:
        """JSON-ready snapshot (used by the ``--profile`` report)."""
        return {
            "steps": self.steps,
            "facet_evaluations": self.facet_evaluations,
            "prim_folds": self.prim_folds,
            "folds_by_facet": dict(self.folds_by_facet),
            "if_reductions": self.if_reductions,
            "unfoldings": self.unfoldings,
            "specializations": self.specializations,
            "cache_hits": self.cache_hits,
            "generalizations": self.generalizations,
            "decisions": self.decisions,
            "constraint_refinements": self.constraint_refinements,
            "phase_seconds": dict(self.phase_seconds),
            "budget": {
                "degradations": self.degradations,
                "by_reason": dict(self.degradations_by_reason),
                "events": [event.as_dict()
                           for event in self.degrade_events],
                "used": dict(self.budget_used),
            },
        }
