"""Resource governance for the specialization engines: the budget
dimensions and the record of a degradation.

Online parameterized PE (Figure 3) is not guaranteed to terminate:
unfolding under dynamic tests and facet refinement can diverge or
produce exponential residuals.  Following the explicit-control school
(generalization/widening in Puebla-Albert-Hermenegildo's framework and
Gallagher & Glück's specialization-with-abstract-interpretation), the
engines meter their work against soft budgets (``PEConfig``'s
``max_*`` fields) and — on exhaustion — **degrade instead of
raising**: the offending call's facet vector is widened to Dynamic
(top), a residual call is emitted instead of unfolding further, and a
:class:`DegradeEvent` records the site and the exhausted dimension.
The result is a correct but less-specialized residual; correctness is
never traded, only precision.

The meter is the run state of the walk every engine drives,
:class:`repro.online.walk.Ctx`.  Four dimensions are metered:

* ``steps`` — node visits, the same unit as ``PEStats.steps``.  The
  meter looks at the step budget only when the count reaches the next
  :data:`STEP_STRIDE` mark, so the per-visit cost on the hot path is
  one comparison — exhaustion may be detected up to
  ``STEP_STRIDE - 1`` steps late, which is negligible against budgets
  in the thousands;
* ``wall_clock`` — elapsed seconds since the run started, sampled at
  the same marks;
* ``residual_nodes`` — residual AST nodes built so far, checked at
  each node;
* ``unfold_depth`` — a visible cap on call-unfolding depth, checked at
  each unfold decision (unlike ``unfold_fuel``, crossing it records a
  :class:`DegradeEvent`).

A dimension set to ``None`` is unlimited; with neither a step nor a
wall-clock budget the meter skips the checks at each mark.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How many steps pass between the meter's looks at the step and
#: wall-clock budgets: the walk looks when its step count reaches the
#: next multiple (``steps >= sync_at``).
STEP_STRIDE = 64

#: The budget dimensions, in reporting order.
DIMENSIONS = ("steps", "wall_clock", "residual_nodes", "unfold_depth")


@dataclass(frozen=True)
class DegradeEvent:
    """One graceful-degradation decision taken by an engine."""

    #: Source-function name of the call the engine degraded at
    #: (``"<lambda>"`` for beta-redexes).
    site: str
    #: The exhausted budget dimension that forced the decision.
    reason: str
    #: What the engine did instead: ``widened-call`` (facet vector
    #: widened to Dynamic, generic residual call emitted) or
    #: ``residual-call`` (unfold refused, precise specialization kept).
    action: str
    #: Unfold depth at the decision point.
    depth: int
    #: ``PEStats.steps`` when the event fired.
    step: int

    def as_dict(self) -> dict:
        return {"site": self.site, "reason": self.reason,
                "action": self.action, "depth": self.depth,
                "step": self.step}

