"""Resource governance for the specialization engines.

Online parameterized PE (Figure 3) is not guaranteed to terminate:
unfolding under dynamic tests and facet refinement can diverge or
produce exponential residuals.  Following the explicit-control school
(generalization/widening in Puebla-Albert-Hermenegildo's framework and
Gallagher & Glück's specialization-with-abstract-interpretation), the
engines meter their work against a :class:`Budget` and — on exhaustion
— **degrade instead of raising**: the offending call's facet vector is
widened to Dynamic (top), a residual call is emitted instead of
unfolding further, and a :class:`DegradeEvent` records the site and the
exhausted dimension.  The result is a correct but less-specialized
residual; correctness is never traded, only precision.

Four dimensions are metered:

* ``steps`` — total PE valuation steps, the same unit as
  ``PEStats.steps``: the engines keep counting on their own stats
  object and *sync* the meter every :data:`STEP_STRIDE` steps
  (:meth:`charge_steps`), so the per-step cost on the hot path is one
  bitmask test — exhaustion may be detected up to ``STEP_STRIDE - 1``
  steps late, which is negligible against budgets in the thousands;
* ``wall_clock`` — elapsed seconds since :meth:`start`, sampled at the
  same sync points;
* ``residual_nodes`` — residual AST nodes constructed so far;
* ``unfold_depth`` — a visible cap on call-unfolding depth (unlike
  ``unfold_fuel``, crossing it records a :class:`DegradeEvent`).

A dimension set to ``None`` is unlimited.  ``Budget.unlimited()`` (all
``None``) short-circuits every check through :attr:`limited`, so a run
without governance pays a single attribute test per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.engine.errors import BudgetExhausted

#: How many steps pass between engine→meter syncs (and wall-clock
#: samples).  A power of two: the engines gate the sync on
#: ``steps & (STEP_STRIDE - 1) == 0``.
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


class Budget:
    """A mutable resource meter for one specialization run.

    The engines call :meth:`charge_steps` every :data:`STEP_STRIDE`
    ``_pe`` dispatches (plus once at the end of the run, so the final
    count is exact) and :meth:`charge_nodes` when residual nodes are
    built; decision points
    read :attr:`exhausted` (the first dimension that ran out, or
    ``None``) and :meth:`blocks_unfold`.  Exhaustion is *sticky*: once
    a dimension fires the budget stays exhausted for the rest of the
    run, so every later decision degrades consistently.
    """

    __slots__ = ("max_steps", "max_unfold_depth", "max_residual_nodes",
                 "max_wall_seconds", "steps", "residual_nodes",
                 "started_at", "exhausted", "limited")

    def __init__(self, max_steps: int | None = None,
                 max_unfold_depth: int | None = None,
                 max_residual_nodes: int | None = None,
                 max_wall_seconds: float | None = None) -> None:
        self.max_steps = max_steps
        self.max_unfold_depth = max_unfold_depth
        self.max_residual_nodes = max_residual_nodes
        self.max_wall_seconds = max_wall_seconds
        self.steps = 0
        self.residual_nodes = 0
        self.started_at: float | None = None
        #: First exhausted dimension, or ``None``.
        self.exhausted: str | None = None
        #: Any dimension finite?  Checked once per step on the hot
        #: path; an unlimited budget costs one attribute read.
        self.limited = any(
            limit is not None
            for limit in (max_steps, max_unfold_depth,
                          max_residual_nodes, max_wall_seconds))

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls()

    def start(self) -> None:
        """(Re)start the wall clock; counters keep accumulating."""
        self.started_at = perf_counter()

    # -- metering ------------------------------------------------------
    def charge_steps(self, steps: int) -> None:
        """Sync the absolute step count from the engine's counter."""
        self.steps = steps
        if self.exhausted is not None:
            return
        if self.max_steps is not None and steps > self.max_steps:
            self.exhausted = "steps"
            return
        if self.max_wall_seconds is not None \
                and self.started_at is not None \
                and perf_counter() - self.started_at \
                >= self.max_wall_seconds:
            self.exhausted = "wall_clock"

    def charge_nodes(self, count: int = 1) -> None:
        nodes = self.residual_nodes = self.residual_nodes + count
        if self.exhausted is None \
                and self.max_residual_nodes is not None \
                and nodes > self.max_residual_nodes:
            self.exhausted = "residual_nodes"

    def blocks_unfold(self, depth: int) -> bool:
        """Would unfolding at ``depth`` cross the unfold-depth cap?"""
        return self.max_unfold_depth is not None \
            and depth >= self.max_unfold_depth

    def degrade(self, stats, event: DegradeEvent, strict: bool) -> None:
        """Take one graceful-degradation decision: record ``event`` on
        the engine's ``stats`` — or, under ``strict_budgets``, raise
        :class:`~repro.engine.errors.BudgetExhausted` instead."""
        if strict:
            raise BudgetExhausted(
                f"budget exceeded ({event.reason}) at {event.site!r}; "
                f"strict_budgets=True turns degradation into an error",
                dimension=event.reason,
                limit=self.limits().get(event.reason),
                used=self.used().get(event.reason))
        stats.record_degrade(event)

    # -- reporting -----------------------------------------------------
    def limits(self) -> dict:
        return {"steps": self.max_steps,
                "wall_clock": self.max_wall_seconds,
                "residual_nodes": self.max_residual_nodes,
                "unfold_depth": self.max_unfold_depth}

    def used(self) -> dict:
        """Deterministic usage counters (wall-clock is reported through
        the phase timers, keeping this snapshot reproducible)."""
        return {"steps": self.steps,
                "residual_nodes": self.residual_nodes}
