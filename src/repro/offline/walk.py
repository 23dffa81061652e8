"""The operations of the offline specialization walk (Section 5),
written once for both of its drivers.

Offline specialization only follows the facet analysis' decisions, and
a generating extension is that same walk with the analysis compiled in
(§1, claim iii).  So the walk has two drivers: the reference
:class:`repro.offline.specializer.OfflineSpecializer`, which looks the
annotations up node by node on the trampoline, and an emitted genext
(:mod:`repro.genext`), whose Python code has the annotations, the
environments and the node dispatch compiled away.  Each driver keeps
only how it walks an expression; every operation of the walk is here:

* the primitive actions :func:`fold`, :func:`trigger` and
  :func:`residual_prim`, which track only the facets the analysis marked
  *needed* in the enclosing function (:meth:`FunctionProfile.restrict`);
* the dynamic conditional's join :func:`build_if` and the residual
  ``let`` :func:`let_exit`;
* the call, split around the walk of the callee's body so that the
  reference can ``yield`` that walk where a genext calls the emitted
  function: :func:`call_decision` takes the engines' shared ``APP``
  (:func:`repro.online.config.decide_call`) against the callee's
  profile; an unfold binds the parameters with :func:`unfold_entry` and
  closes their ``let``\\ s with :func:`unfold_exit`; a specialization is
  keyed, registered or found by :func:`variant_entry` and becomes a
  residual call in :func:`variant_exit`;
* entry and exit, :meth:`OfflineWalk.run`: the arity and pattern
  checks, goal-parameter binding, the budget, the ``specialize`` phase
  and residual assembly, under :func:`engine_guard`.

Residual names, gensym order, statistics and degradation logs are the
same from both drivers because they run the same code.  Per-run state
lives on a :class:`Ctx`, the step meter included.  The walk ticks once
per AST node visit: the reference ticks as it visits
(:meth:`Ctx.tick`), a genext adds each straight-line segment's baked
node count before control leaves the segment.  Every operation that
charges a residual node or takes a call decision first catches the
meter up (:func:`_catch_up`), so the ``STEP_STRIDE`` sync, the ``fuel``
backstop and the order in which steps and residual nodes run out do not
depend on the driver.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.engine.budget import STEP_STRIDE
from repro.engine.errors import BudgetExhausted, engine_guard
from repro.facets.abstract.vector import AbstractSuite, AbstractVector
from repro.facets.vector import FacetSuite, FacetVector
from repro.lang.ast import Call, Const, Expr, FunDef, If, Prim, Var
from repro.lang.errors import EvalError, PEError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lang.program import Program
from repro.lang.values import Value, is_value
from repro.lattice.pevalue import PEValue
from repro.online.cache import (
    ResidualFunction, SpecCache, dynamic_positions, generalization_rung,
    generalize, make_key)
from repro.online.config import PEConfig, PEStats, decide_call
from repro.transform.simplify import close_let, finish_residual

#: What the walk computes for an expression: its residual code and the
#: facet vector of its value.
Pair = tuple[Expr, FacetVector]


class Ctx:
    """The state of one run: config, residual cache, counters, budget
    meter, gensym and unfold depth."""

    __slots__ = ("config", "cache", "stats", "budget", "fuel", "depth",
                 "gensym", "steps", "sync_at")

    def __init__(self, config: PEConfig,
                 reserved_names: Sequence[str]) -> None:
        self.config = config
        self.cache = SpecCache(reserved_names=reserved_names)
        self.stats = PEStats()
        self.budget = config.make_budget()
        self.fuel = config.fuel
        self.depth = 0
        self.gensym = 0
        #: Node visits so far (``PEStats.steps`` at the end).
        self.steps = 0
        #: The step count at which the meter must look next: the next
        #: ``STEP_STRIDE`` multiple, or ``fuel + 1`` if that is sooner.
        self.sync_at = min(STEP_STRIDE, self.fuel + 1)

    def fresh(self, base: str) -> str:
        self.gensym += 1
        return f"{base}!{self.gensym}"

    def tick(self) -> None:
        """One node visit."""
        self.steps += 1
        if self.steps >= self.sync_at:
            _catch_up(self)


def _catch_up(ctx: Ctx) -> None:
    """The per-tick checks for the steps added since the last look
    (callers test ``ctx.steps >= ctx.sync_at``): past ``fuel`` raise;
    otherwise sync the budget at the last ``STEP_STRIDE`` multiple
    reached, as one tick at a time would have."""
    steps = ctx.steps
    fuel = ctx.fuel
    if steps > fuel:
        raise BudgetExhausted(
            f"specialization exceeded {fuel} steps",
            dimension="fuel", limit=fuel, used=steps)
    mark = steps - steps % STEP_STRIDE
    if ctx.budget.limited:
        ctx.budget.charge_steps(mark)
    ctx.sync_at = min(mark + STEP_STRIDE, fuel + 1)


def _charge_node(ctx: Ctx) -> None:
    """Charge one residual node, after the steps that precede it."""
    if ctx.steps >= ctx.sync_at:
        _catch_up(ctx)
    ctx.budget.charge_nodes()


class FunctionProfile:
    """What the walk knows about one subject function: the facets the
    analysis marked needed there (as per-sort restriction masks), the
    free occurrences of each parameter in its body, and its ``body`` in
    the driver's form (an AST, or an emitted Python function)."""

    __slots__ = ("suite", "name", "params", "arity", "needed",
                 "occurrences", "body", "_masks")

    def __init__(self, suite: FacetSuite, name: str,
                 params: Sequence[str], needed: Sequence[str],
                 occurrences: Mapping[str, int], body: Any) -> None:
        self.suite = suite
        self.name = name
        self.params = tuple(params)
        self.arity = len(self.params)
        self.needed = frozenset(needed)
        self.occurrences = occurrences
        self.body = body
        self._masks: dict[str | None, tuple[bool, ...] | None] = {}

    def restrict(self, vector: FacetVector) -> FacetVector:
        """Top out the components of facets this function does not
        need, so the run does no work to maintain them."""
        sort = vector.sort
        try:
            mask = self._masks[sort]
        except KeyError:
            keep = tuple(facet.name in self.needed
                         for facet in self.suite.facets_for(sort))
            mask = self._masks[sort] = None if all(keep) else keep
        if mask is None:
            return vector
        suite = self.suite
        user = tuple(
            component if kept else facet.domain.top
            for kept, facet, component
            in zip(mask, suite.facets_for(sort), vector.user))
        return suite.make_vector(sort, vector.pe, user)

    def const_pair(self, value: Value) -> Pair:
        return Const(value), self.restrict(self.suite.const_vector(value))


# -- primitives, conditionals, lets ---------------------------------------

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
    _charge_node(ctx)
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


def build_if(pf: FunctionProfile, ctx: Ctx, test_expr: Expr,
             then_pair: Pair, else_pair: Pair) -> Pair:
    """A conditional whose test stayed dynamic: join the branches."""
    then_expr, then_vector = then_pair
    else_expr, else_vector = else_pair
    joined = pf.suite.join(then_vector, else_vector)
    _charge_node(ctx)
    return If(test_expr, then_expr, else_expr), joined


def let_exit(ctx: Ctx, fresh: str, bound_expr: Expr, pair: Pair) -> Pair:
    """Close a residual ``let`` (:func:`close_let`), after the steps
    that precede it."""
    if ctx.steps >= ctx.sync_at:
        _catch_up(ctx)
    body_expr, body_vector = pair
    return close_let(ctx.budget, fresh, bound_expr, body_expr), \
        body_vector


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
        _catch_up(ctx)
    decision = decide_call(ctx, pf.name, ctx.depth, ctx.steps,
                           any(map(pf.suite.informative, vectors)))
    return decision, vectors


def unfold_entry(pf: FunctionProfile, ctx: Ctx, pairs: Sequence[Pair],
                 vectors: Sequence[FacetVector]) \
        -> tuple[list[Pair], list[tuple[str, Expr]]]:
    """Bind ``pf``'s parameters for an unfold, one level deeper: a
    trivial argument, or one the body uses at most once, is
    substituted; any other is bound to a fresh name whose ``let``
    :func:`unfold_exit` closes around the walked body."""
    bound: list[Pair] = []
    lets: list[tuple[str, Expr]] = []
    occurrences = pf.occurrences
    for param, (arg_expr, _), vector in zip(pf.params, pairs, vectors):
        if isinstance(arg_expr, (Const, Var)) or occurrences[param] <= 1:
            bound.append((arg_expr, vector))
        else:
            fresh = ctx.fresh(param)
            lets.append((fresh, arg_expr))
            bound.append((Var(fresh), vector))
    ctx.depth += 1
    return bound, lets


def unfold_exit(ctx: Ctx, lets: Sequence[tuple[str, Expr]],
                pair: Pair) -> Pair:
    ctx.depth -= 1
    for fresh, bound in reversed(lets):
        pair = let_exit(ctx, fresh, bound, pair)
    return pair


def variant_entry(pf: FunctionProfile, ctx: Ctx,
                  vectors: Sequence[FacetVector], widen: bool) \
        -> tuple[ResidualFunction, list[Pair] | None, int]:
    """Key a specialized call at its generalization rung and look it
    up.  Returns the cache entry; for a new variant also the parameter
    bindings its body is walked under, at unfold depth 0 (else
    ``None``); and the caller's depth, for :func:`variant_exit`."""
    config = ctx.config
    rung = generalization_rung(pf.suite, ctx.cache, pf.name,
                               config.max_variants, widen)
    if rung == 2 and not widen and not config.lenient:
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
    if rung:
        ctx.stats.generalizations += 1
        vectors = generalize(pf.suite, vectors, rung)
    key = make_key(pf.suite, pf.name, vectors, rung)
    depth = ctx.depth
    entry = ctx.cache.lookup(key)
    if entry is not None:
        ctx.stats.cache_hits += 1
        return entry, None, depth
    positions = dynamic_positions(vectors, rung)
    entry = ctx.cache.register(key, pf.name, positions,
                               tuple(pf.params[i] for i in positions))
    ctx.stats.specializations += 1
    bound = [(Var(param), vector) if i in positions
             else (Const(vector.pe.constant()), vector)
             for i, (param, vector) in enumerate(zip(pf.params, vectors))]
    ctx.depth = 0
    return entry, bound, depth


def variant_exit(pf: FunctionProfile, ctx: Ctx, entry: ResidualFunction,
                 pairs: Sequence[Pair], body: Expr | None,
                 depth: int) -> Pair:
    """The residual call to ``entry``, after a new variant's walked
    ``body`` completes its definition."""
    ctx.depth = depth
    if body is not None:
        ctx.cache.finish(entry, FunDef(entry.name, entry.params, body))
    _charge_node(ctx)
    args = tuple(pairs[i][0] for i in entry.dynamic_positions)
    return Call(entry.name, args), pf.suite.unknown(None)


# -- entry and exit -------------------------------------------------------

class OfflineWalk:
    """One analyzed program ready to specialize: the online suite, the
    analyzed input pattern (in the abstract suite it was analyzed
    with), the engine config and a profile per function.  A driver
    supplies :meth:`walk`."""

    def __init__(self, suite: FacetSuite, abstract: AbstractSuite,
                 pattern: Sequence[AbstractVector], config: PEConfig,
                 profiles: Mapping[str, FunctionProfile],
                 main: str) -> None:
        self.suite = suite
        self.abstract = abstract
        self.pattern = tuple(pattern)
        self.config = config
        self.profiles = dict(profiles)
        self.main = self.profiles[main]
        self._facets = {facet.name: facet for facet in suite.facets}

    def facet(self, name: str | None):
        """The facet a TRIGGER annotation names (``None`` if unknown)."""
        return self._facets.get(name)

    def walk(self, ctx: Ctx, pairs: Sequence[Pair]) -> Expr:
        """The residual goal body, with the goal's parameters bound to
        ``pairs``."""
        raise NotImplementedError

    def run(self, inputs: Sequence[FacetVector | Value]) \
            -> tuple[Program, Program, PEStats, tuple[str, ...]]:
        """Specialize on inputs matching the analyzed pattern; returns
        the finished and the raw residual, the statistics and the goal
        parameters."""
        main = self.main
        with engine_guard("offline specialization"):
            if len(inputs) != main.arity:
                raise PEError(
                    f"{main.name}: expected {main.arity} inputs, "
                    f"got {len(inputs)}")
            vectors = [self.suite.const_vector(value) if is_value(value)
                       else value for value in inputs]
            if not self.config.lenient:
                # Inputs must lie at or below the analyzed abstract
                # pattern.  Lenient mode accepts off-pattern inputs;
                # broken Static promises residualize instead of folding.
                abstract = self.abstract
                for i, (vector, analyzed) in enumerate(zip(vectors,
                                                           self.pattern)):
                    given = abstract.abstract_of_online(vector)
                    if not abstract.leq(given, analyzed):
                        raise PEError(
                            f"input {i} ({given}) does not match the analyzed "
                            f"pattern ({analyzed}); rerun the facet analysis "
                            f"for this division")
            pairs: list[Pair] = []
            goal_params = []
            for param, vector in zip(main.params, vectors):
                vector = main.restrict(vector)
                if vector.pe.is_const:
                    pairs.append((Const(vector.pe.constant()), vector))
                else:
                    pairs.append((Var(param), vector))
                    goal_params.append(param)
            ctx = Ctx(self.config, list(self.profiles))
            stats = ctx.stats
            ctx.budget.start()
            started = perf_counter()
            try:
                body = self.walk(ctx, pairs)
                if ctx.steps >= ctx.sync_at:
                    _catch_up(ctx)  # the fuel backstop covers the tail
            finally:
                stats.record_phase("specialize", perf_counter() - started)
            ctx.budget.charge_steps(ctx.steps)
            stats.steps = ctx.steps
            stats.budget_used = ctx.budget.used()
            goal = FunDef(main.name, tuple(goal_params), body)
            raw = Program((goal, *ctx.cache.residual_defs()))
            return (finish_residual(raw, self.config, stats), raw, stats,
                    tuple(goal_params))

