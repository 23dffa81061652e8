"""Configuration, statistics and the call rule shared by the engines.

The paper abstracts the treatment of calls behind ``APP`` ("because this
treatment vastly differs from one partial evaluator to another").  Our
``APP`` is the classic unfold-or-specialize strategy, written once here
as :func:`decide_call` (and :func:`decide_beta` for lambda
applications) and called by all four engines — online, offline and the
emitted genext, and the simple baseline through the online engine it
runs over the empty facet suite.  Each engine only says whether the
call's arguments are *informative*.  The rest of the call (parameter
binding, variant keying and registration) and the run state these
rules read live in the walk every engine drives,
:mod:`repro.online.walk`.  Three termination guards are tunable here:

* ``unfold_fuel`` bounds the depth of nested unfoldings along one call
  chain; past it, calls are specialized through the cache;
* ``max_variants`` bounds the number of cached specializations per
  source function; past it, keys are *generalized* (facet components to
  top first, then constants to dynamic; a suite without facets skips
  the first rung), which restores termination on static data that
  grows under recursion;
* ``fuel`` bounds total PE work, turning a diverging *static* loop in
  the subject program into a catchable error.

On top of the guards sit the *soft budgets* (``max_steps`` /
``max_unfold_depth`` / ``max_residual_nodes`` / ``max_wall_seconds``,
the dimensions of :mod:`repro.engine.budget`), which the run state
meters.  Crossing a soft budget never raises by default: the engine
widens the offending call to Dynamic, emits a residual call instead of
unfolding further, records a
:class:`~repro.engine.budget.DegradeEvent` and keeps going — a correct
but less-specialized residual instead of a crash.
``strict_budgets=True`` turns exhaustion into a
:class:`~repro.engine.errors.BudgetExhausted` instead; ``fuel`` stays
as the hard backstop behind everything and always raises.

``PEStats`` — the decision-cost instrumentation behind
``benchmarks/bench_decisions.py`` — now lives in
:mod:`repro.observability.stats` and is re-exported here for
compatibility: the online specializer pays ``facet_evaluations`` at
every primitive, the offline one only where the facet analysis said a
facet is needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.observability.stats import PEStats

__all__ = ["PEConfig", "PEStats", "SPECIALIZE", "UNFOLD", "UnfoldStrategy",
           "WIDEN", "decide_beta", "decide_call"]


class UnfoldStrategy(enum.Enum):
    """When should a call be unfolded rather than specialized?"""

    #: Unfold while any argument carries information (a constant or a
    #: non-top facet component); the default, and what the paper's
    #: inner-product walk-through needs.
    STATIC_ARGS = "static-args"
    #: Never unfold; every call goes through the specialization cache.
    NEVER = "never"


@dataclass(frozen=True)
class PEConfig:
    """Tunables of both specializers."""

    unfold_strategy: UnfoldStrategy = UnfoldStrategy.STATIC_ARGS
    unfold_fuel: int = 400
    max_variants: int = 64
    fuel: int = 2_000_000
    #: Run the algebraic cleanup of :mod:`repro.transform.simplify` on
    #: the residual program (needed to match Figure 8 exactly).
    simplify: bool = True
    #: Rename generated functions to readable ``f_1`` style and drop
    #: unreachable definitions.
    tidy: bool = True
    #: Offline only: residualize (instead of raising) when a spec-time
    #: input does not match the analyzed pattern.
    lenient: bool = False
    #: Online extension (the paper's Section 4.4 future work, Redfun's
    #: behaviour): propagate a residual test's constraint — and its
    #: negation — into the consequent/alternative branches, refining
    #: the facet values of the variables it mentions.
    propagate_constraints: bool = False

    # -- resource governance (repro.engine.budget) ---------------------
    #: Soft PE-step budget; past it the engine stops unfolding and
    #: widens every further call to Dynamic instead of raising.
    #: ``None`` disables the dimension.  The default is far above any
    #: legitimate workload in the repo but finite, so known-divergent
    #: programs terminate with a degraded residual out of the box.
    max_steps: int | None = 1_000_000
    #: Soft cap on residual AST nodes built before widening kicks in.
    max_residual_nodes: int | None = 250_000
    #: Visible unfold-depth cap: unlike ``unfold_fuel`` (a silent
    #: strategy bound), crossing it records a DegradeEvent.
    max_unfold_depth: int | None = None
    #: Soft wall-clock budget in seconds (sampled every
    #: :data:`repro.engine.budget.STEP_STRIDE` steps).  The service
    #: maps per-request deadlines here so the engine degrades
    #: cooperatively before the worker is killed.
    max_wall_seconds: float | None = None
    #: Raise :class:`~repro.engine.errors.BudgetExhausted` on soft
    #: budget exhaustion instead of degrading gracefully.
    strict_budgets: bool = False


#: The outcomes of :func:`decide_call`.
WIDEN = "widen"
UNFOLD = "unfold"
SPECIALIZE = "specialize"


def decide_call(run, site: str, informative: bool) -> str:
    """``APP`` for a call to the top-level function ``site``.

    ``run`` is the run taking the decision, a
    :class:`repro.online.walk.Ctx`: its ``config``, ``depth``,
    ``exhausted`` and ``stats`` and its :meth:`degrade`.  Once a soft
    budget is exhausted the call is widened (:data:`WIDEN`: specialize
    on the all-dynamic variant).  Otherwise it unfolds while
    ``informative`` holds, up to ``unfold_fuel``; an unfold the
    ``max_unfold_depth`` cap refuses keeps the precise specialization.
    Everything else is specialized through the cache.  Counts
    ``unfoldings`` and records every degradation."""
    reason = run.exhausted
    if reason is not None:
        run.degrade(site, reason, "widened-call")
        return WIDEN
    config = run.config
    depth = run.depth
    if not informative or depth >= config.unfold_fuel \
            or config.unfold_strategy is UnfoldStrategy.NEVER:
        return SPECIALIZE
    cap = config.max_unfold_depth
    if cap is not None and depth >= cap:
        run.degrade(site, "unfold_depth", "residual-call")
        return SPECIALIZE
    run.stats.unfoldings += 1
    return UNFOLD


def decide_beta(run) -> bool:
    """``APP`` for the application of a lambda: beta-reduce (``True``)
    up to ``unfold_fuel``, unless a soft budget is exhausted or the
    unfold-depth cap refuses the unfold — then the application stays
    residual and the degradation is recorded."""
    config = run.config
    depth = run.depth
    if depth >= config.unfold_fuel:
        return False
    reason = run.exhausted
    cap = config.max_unfold_depth
    if reason is None and cap is not None and depth >= cap:
        reason = "unfold_depth"
    if reason is not None:
        run.degrade("<lambda>", reason, "residual-call")
        return False
    run.stats.unfoldings += 1
    return True
