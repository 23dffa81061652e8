"""The offline operations of the specialization walk (Section 5),
written once for both offline drivers.

Offline specialization only follows the facet analysis' decisions, and
a generating extension is that same walk with the analysis compiled in
(§1, claim iii).  So the offline walk has two drivers: the reference
:class:`repro.offline.specializer.OfflineSpecializer`, which looks the
annotations up node by node on the trampoline, and an emitted genext
(:mod:`repro.genext`), whose Python code has the annotations, the
environments and the node dispatch compiled away.  Both run the walk
every engine shares (:mod:`repro.online.walk`: the run state
:class:`~repro.online.walk.Ctx`, the conditional's join, the residual
``let``, the call, and the entry and exit on the trampoline).  What
stays here is what only an offline driver does:

* the primitive actions :func:`fold`, :func:`trigger` and
  :func:`residual_prim`, which track only the facets the analysis marked
  *needed* in the enclosing function
  (:meth:`~repro.online.walk.FunctionProfile.restrict`), and
  :func:`unbound`;
* :func:`call_decision`, the engines' shared ``APP``
  (:func:`repro.online.config.decide_call`) taken against the callee's
  profile, which restricts the argument vectors to the facets the
  callee needs and refuses a call past the generalization ladder's
  last rung (unless ``lenient``);
* :class:`OfflineWalk`: the analyzed input pattern and the check of
  the inputs against it at entry.

Residual names, gensym order, statistics and degradation logs are the
same from both drivers because they run the same code.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.facets.abstract.vector import AbstractSuite, AbstractVector
from repro.facets.vector import FacetSuite, FacetVector
from repro.lang.ast import Const, Prim
from repro.lang.errors import EvalError, PEError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lattice.pevalue import PEValue
from repro.online.cache import generalization_rung
from repro.online.config import SPECIALIZE, PEConfig, decide_call
from repro.online.walk import Ctx, FunctionProfile, Pair, Walk


# -- primitives -----------------------------------------------------------

def unbound(name: str) -> Pair:
    """A variable the subject program references but never binds."""
    raise PEError(f"unbound variable {name!r}")


def fold(pf: FunctionProfile, ctx: Ctx, op: str,
         pairs: Sequence[Pair]) -> Pair:
    """A FOLD-annotated primitive: every argument is static, so execute
    it concretely."""
    values = []
    for arg_expr, _ in pairs:
        if not isinstance(arg_expr, Const):
            # Inputs were pattern-checked at entry, so a residual
            # argument under a Static annotation can only be the
            # paper's "modulo termination" caveat: a static
            # subexpression errored (bottom) and was residualized.
            # Residualize here too — the error stays at run time.
            return residual_prim(pf, ctx, op, pairs)
        values.append(arg_expr.value)
    if fold_would_blow_up(op, values):
        return residual_prim(pf, ctx, op, pairs)
    try:
        value = apply_primitive(op, values)
    except EvalError:
        return residual_prim(pf, ctx, op, pairs)
    ctx.stats.facet_evaluations += 1
    ctx.stats.record_fold("pe")
    return pf.const_pair(value)


def trigger(pf: FunctionProfile, ctx: Ctx, op: str,
            pairs: Sequence[Pair], facet) -> Pair:
    """A TRIGGER-annotated primitive: the analysis promised ``facet``'s
    open operator yields the constant, so run exactly that operator."""
    suite = pf.suite
    vectors = [pair[1] for pair in pairs]
    outcome = None
    if facet is not None:
        sig = suite.resolve_sig(op, vectors)
        if sig is not None:
            projected = suite.project_args(facet, sig, vectors)
            ctx.stats.facet_evaluations += 1
            outcome = facet.apply_open(op, sig, projected)
    if outcome is not None and outcome.is_const:
        ctx.stats.record_fold(facet.name)
        return pf.const_pair(outcome.constant())
    # The bottom caveat again (see fold).
    return residual_prim(pf, ctx, op, pairs)


def residual_prim(pf: FunctionProfile, ctx: Ctx, op: str,
                  pairs: Sequence[Pair]) -> Pair:
    """Keep the primitive residual, pushing closed facet operators
    through the needed components only (downstream triggers read
    them)."""
    suite = pf.suite
    vectors = [pair[1] for pair in pairs]
    residual_expr = Prim(op, tuple(pair[0] for pair in pairs))
    sig = suite.resolve_sig(op, vectors)
    ctx.charge_node()
    if sig is None:
        return residual_expr, suite.unknown(None)
    if any(suite.is_bottom(v) for v in vectors):
        return residual_expr, suite.bottom(sig.result_sort)
    if sig.is_closed:
        needed = pf.needed
        components = []
        for facet in suite.facets_for(sig.carrier):
            if facet.name in needed:
                projected = suite.project_args(facet, sig, vectors)
                ctx.stats.facet_evaluations += 1
                components.append(
                    facet.apply_closed(op, sig, projected))
            else:
                components.append(facet.domain.top)
        vector = suite.smash(suite.make_vector(
            sig.result_sort, PEValue.top(), tuple(components)))
        return residual_expr, vector
    return residual_expr, suite.unknown(sig.result_sort)


# -- the call -------------------------------------------------------------

def call_decision(pf: FunctionProfile, ctx: Ctx, pairs: Sequence[Pair]) \
        -> tuple[str, list[FacetVector]]:
    """``APP`` for a call to ``pf``'s function, with the argument
    vectors restricted to the facets the *callee* needs (which makes
    cache keys coarser and hits more frequent).  Returns the
    :func:`decide_call` outcome and those vectors."""
    restrict = pf.restrict
    vectors = [restrict(pair[1]) for pair in pairs]
    ctx.stats.decisions += 1
    if ctx.steps >= ctx.sync_at:
        ctx.catch_up()
    decision = decide_call(ctx, pf.name,
                           any(map(pf.suite.informative, vectors)))
    config = ctx.config
    if decision is SPECIALIZE and not config.lenient \
            and generalization_rung(pf.suite, ctx.cache, pf.name,
                                    config.max_variants, False) == 2:
        # Static data grows under dynamic control.  Classic offline PE
        # diverges here: making the argument dynamic would break the
        # analysis's Static promises.  Lenient mode residualizes the
        # mismatches; otherwise fail with advice.  A budget-forced
        # widening never raises: a Static annotation meeting a
        # now-dynamic value residualizes via the bottom caveat.
        raise PEError(
            f"{pf.name}: more than {ctx.cache.variants_of(pf.name)} "
            f"specialization variants — static data grows under "
            f"dynamic control; re-analyze with a generalized "
            f"division or set PEConfig(lenient=True)")
    return decision, vectors


# -- entry ----------------------------------------------------------------

class OfflineWalk(Walk):
    """One analyzed program ready to specialize: the online suite, the
    analyzed input pattern (in the abstract suite it was analyzed
    with), the engine config and a profile per function.  A driver
    supplies :meth:`enter`."""

    stage = "offline specialization"

    def __init__(self, suite: FacetSuite, abstract: AbstractSuite,
                 pattern: Sequence[AbstractVector], config: PEConfig,
                 profiles: Mapping[str, FunctionProfile],
                 main: str) -> None:
        super().__init__(suite, config, profiles, main)
        self.abstract = abstract
        self.pattern = tuple(pattern)
        self._facets = {facet.name: facet for facet in suite.facets}

    def facet(self, name: str | None):
        """The facet a TRIGGER annotation names (``None`` if unknown)."""
        return self._facets.get(name)

    def check(self, vectors: Sequence[FacetVector]) -> None:
        """Inputs must lie at or below the analyzed abstract pattern.
        Lenient mode accepts off-pattern inputs; broken Static promises
        residualize instead of folding."""
        if self.config.lenient:
            return
        abstract = self.abstract
        for i, (vector, analyzed) in enumerate(zip(vectors,
                                                   self.pattern)):
            given = abstract.abstract_of_online(vector)
            if not abstract.leq(given, analyzed):
                raise PEError(
                    f"input {i} ({given}) does not match the analyzed "
                    f"pattern ({analyzed}); rerun the facet analysis "
                    f"for this division")
