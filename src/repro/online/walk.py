"""The specialization walk every engine drives: its run state, the
operations that do not depend on where a reduction decision comes
from, and the entry and exit.

Figure 3 and the offline walk of Section 5 differ only in where each
reduction decision comes from: the online engine computes it from the
facet product at each node, the offline specializer "merely follows"
the facet analysis.  Both hide the treatment of calls behind one
``APP`` (§4.4).  So the rest of the walk is written once, here, and
has three drivers: :class:`repro.online.specializer.OnlineSpecializer`
(Figure 3, and Figure 2 over the empty facet suite), the reference
:class:`repro.offline.specializer.OfflineSpecializer` and an emitted
genext (:mod:`repro.genext`).  The offline drivers' own operations —
annotation-driven folding, facet restriction at calls, the pattern
check — live in :mod:`repro.offline.walk`.  Each driver supplies only
``enter(pf, ctx, bound)``, its walk of one function body as a
generator; here are

* the run state :class:`Ctx` — config, residual cache, counters,
  gensym, unfold depth and the run's one budget meter, which counts
  steps and residual nodes, keeps the first exhausted budget and
  records or, under ``strict_budgets``, raises each degradation — and
  :class:`FunctionProfile`, what the walk knows about one function
  (the facets it needs, its parameters' occurrence counts, its body);
* the dynamic conditional's join :func:`build_if` and the residual
  ``let`` :func:`let_exit`;
* the call :func:`walk_call`: after the driver's ``APP``
  (:func:`repro.online.config.decide_call`), an unfold binds the
  parameters, yields the callee's ``enter`` and closes the ``let``\\ s;
  a specialization is keyed, registered or found, and becomes a
  residual call;
* entry and exit, :meth:`Walk.run`: the arity check, goal-parameter
  binding, the ``specialize`` phase on the trampoline
  (:func:`repro.engine.trampoline.run_trampoline`, a constant host
  stack however deep the unfolding goes) and residual assembly, under
  :func:`engine_guard`.

Residual names, gensym order, statistics and degradation logs are the
same from every driver that takes the same decisions because they run
the same code.  The walk ticks once per AST node visit: the online and
offline specializers tick as they visit (:meth:`Ctx.tick`), a genext
adds each straight-line segment's baked node count before control
leaves the segment.  Every operation that charges a residual node or
takes a call decision first catches the meter up (:meth:`Ctx.catch_up`),
so the ``STEP_STRIDE`` checks, the ``fuel`` backstop and the order in
which steps and residual nodes run out do not depend on the driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.engine.budget import STEP_STRIDE, DegradeEvent
from repro.engine.errors import BudgetExhausted, engine_guard
from repro.engine.trampoline import run_trampoline
from repro.facets.vector import FacetSuite, FacetVector
from repro.lang.ast import Call, Const, Expr, FunDef, If, Let, Var, \
    count_occurrences
from repro.lang.errors import PEError
from repro.lang.program import Program
from repro.lang.values import Value, is_value
from repro.online.cache import (
    SpecCache, dynamic_positions, generalization_rung, generalize,
    make_key)
from repro.online.config import UNFOLD, WIDEN, PEConfig, PEStats
from repro.transform.simplify import definitely_total, finish_residual

#: What the walk computes for an expression: its residual code and the
#: facet vector of its value.
Pair = tuple[Expr, FacetVector]


@dataclass(frozen=True)
class SpecializationResult:
    """The outcome of one specialization run."""

    #: Cleaned residual program (simplified/tidied per config).
    program: Program
    #: Residual program exactly as ``MkProg`` built it.
    raw_program: Program
    #: The facet vector of the goal expression.
    vector: FacetVector
    stats: PEStats
    #: Parameter names the residual goal function kept.
    goal_params: tuple[str, ...]


class Ctx:
    """The state of one run: config, residual cache, counters, the
    meter of its budgets, gensym and unfold depth."""

    __slots__ = ("config", "cache", "stats", "fuel", "depth", "gensym",
                 "steps", "sync_at", "residual_nodes", "exhausted",
                 "started_at", "limited")

    def __init__(self, config: PEConfig,
                 reserved_names: Sequence[str]) -> None:
        self.config = config
        self.cache = SpecCache(reserved_names=reserved_names)
        self.stats = PEStats()
        self.fuel = config.fuel
        self.depth = 0
        self.gensym = 0
        #: Node visits so far (``PEStats.steps`` at the end).
        self.steps = 0
        #: The step count at which the meter must look next: the next
        #: ``STEP_STRIDE`` multiple, or ``fuel + 1`` if that is sooner.
        self.sync_at = min(STEP_STRIDE, self.fuel + 1)
        #: Residual nodes built so far.
        self.residual_nodes = 0
        #: The first soft budget that ran out, or ``None``.  Sticky:
        #: every later decision degrades.
        self.exhausted: str | None = None
        #: Is a step or wall-clock budget set?  Only then does the
        #: meter look at them.
        self.limited = config.max_steps is not None \
            or config.max_wall_seconds is not None
        self.started_at = perf_counter()

    def fresh(self, base: str) -> str:
        self.gensym += 1
        return f"{base}!{self.gensym}"

    def tick(self) -> None:
        """One node visit."""
        self.steps += 1
        if self.steps >= self.sync_at:
            self.catch_up()

    def catch_up(self) -> None:
        """The per-tick checks for the steps added since the last look
        (callers test ``steps >= sync_at``): past ``fuel`` raise;
        otherwise check the step and wall-clock budgets at the last
        ``STEP_STRIDE`` multiple reached, as one tick at a time would
        have."""
        steps = self.steps
        fuel = self.fuel
        if steps > fuel:
            raise BudgetExhausted(
                f"partial evaluation exceeded {fuel} steps; a static "
                f"loop in the subject program may diverge",
                dimension="fuel", limit=fuel, used=steps)
        mark = steps - steps % STEP_STRIDE
        if self.limited and self.exhausted is None:
            config = self.config
            if config.max_steps is not None and mark > config.max_steps:
                self.exhausted = "steps"
            elif config.max_wall_seconds is not None \
                    and perf_counter() - self.started_at \
                    >= config.max_wall_seconds:
                self.exhausted = "wall_clock"
        self.sync_at = min(mark + STEP_STRIDE, fuel + 1)

    def charge_node(self) -> None:
        """Charge one residual node, after the steps that precede it."""
        if self.steps >= self.sync_at:
            self.catch_up()
        nodes = self.residual_nodes = self.residual_nodes + 1
        if self.exhausted is None:
            limit = self.config.max_residual_nodes
            if limit is not None and nodes > limit:
                self.exhausted = "residual_nodes"

    def degrade(self, site: str, reason: str, action: str) -> None:
        """Take one graceful-degradation decision at ``site``, forced
        by the exhausted budget ``reason``: record it at the run's
        depth and step, or raise :class:`BudgetExhausted` instead under
        ``strict_budgets``."""
        config = self.config
        if config.strict_budgets:
            limits = {"steps": config.max_steps,
                      "wall_clock": config.max_wall_seconds,
                      "residual_nodes": config.max_residual_nodes,
                      "unfold_depth": config.max_unfold_depth}
            raise BudgetExhausted(
                f"budget exceeded ({reason}) at {site!r}; "
                f"strict_budgets=True turns degradation into an error",
                dimension=reason, limit=limits[reason],
                used=self.used().get(reason))
        self.stats.record_degrade(
            DegradeEvent(site, reason, action, self.depth, self.steps))

    def used(self) -> dict:
        """The deterministic usage counters (wall-clock time is the
        ``specialize`` phase timer)."""
        return {"steps": self.steps, "residual_nodes": self.residual_nodes}


class Occurrences(dict):
    """A body's free occurrences per parameter, counted on first use
    (an emitted genext bakes them instead)."""

    def __init__(self, body: Expr) -> None:
        super().__init__()
        self.body = body

    def __missing__(self, param: str) -> int:
        count = self[param] = count_occurrences(self.body, param)
        return count


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
        return self.suite.restrict(vector, mask)

    def const_pair(self, value: Value) -> Pair:
        return Const(value), self.restrict(self.suite.const_vector(value))


# -- conditionals, lets ---------------------------------------------------

def build_if(pf: FunctionProfile, ctx: Ctx, test_expr: Expr,
             then_pair: Pair, else_pair: Pair) -> Pair:
    """A conditional whose test stayed dynamic: join the branches."""
    then_expr, then_vector = then_pair
    else_expr, else_vector = else_pair
    joined = pf.suite.join(then_vector, else_vector)
    ctx.charge_node()
    return If(test_expr, then_expr, else_expr), joined


def let_exit(ctx: Ctx, fresh: str, bound_expr: Expr, pair: Pair) -> Pair:
    """Close the residual ``let`` the walk opened for ``fresh``: drop
    the binding when the body never uses it and evaluating
    ``bound_expr`` cannot be observed; otherwise charge the node."""
    body_expr, body_vector = pair
    if count_occurrences(body_expr, fresh, limit=1) == 0 \
            and definitely_total(bound_expr):
        return pair
    ctx.charge_node()
    return Let(fresh, bound_expr, body_expr), body_vector


# -- the call -------------------------------------------------------------

def walk_call(enter, pf: FunctionProfile, ctx: Ctx, pairs: Sequence[Pair],
              vectors: Sequence[FacetVector], decision: str):
    """A call to ``pf``'s function as the driver's ``APP`` decided it,
    ``enter(pf, ctx, bound)`` being the driver's walk of a body.

    An unfold walks the body one level deeper: a trivial argument, or
    one the body uses at most once, is substituted; any other is bound
    to a fresh name whose ``let`` closes around the walked body.  A
    specialization is keyed at its generalization rung and looked up;
    a new variant is registered and its body walked at unfold depth 0.
    Either way the call becomes a residual call to the variant.  A
    budget-forced widening (:data:`~repro.online.config.WIDEN`)
    collapses the call onto the callee's fully generic variant (rung
    2), so at most one new residual function per source function can
    still be created."""
    if decision is UNFOLD:
        bound: list[Pair] = []
        lets: list[tuple[str, Expr]] = []
        occurrences = pf.occurrences
        for param, (arg, _), vector in zip(pf.params, pairs, vectors):
            if isinstance(arg, (Const, Var)) or occurrences[param] <= 1:
                bound.append((arg, vector))
            else:
                fresh = ctx.fresh(param)
                lets.append((fresh, arg))
                bound.append((Var(fresh), vector))
        ctx.depth += 1
        pair = yield enter(pf, ctx, bound)
        ctx.depth -= 1
        for fresh, arg in reversed(lets):
            pair = let_exit(ctx, fresh, arg, pair)
        return pair
    rung = generalization_rung(pf.suite, ctx.cache, pf.name,
                               ctx.config.max_variants, decision is WIDEN)
    if rung:
        ctx.stats.generalizations += 1
        vectors = generalize(pf.suite, vectors, rung)
    key = make_key(pf.suite, pf.name, vectors, rung)
    entry = ctx.cache.lookup(key)
    if entry is not None:
        ctx.stats.cache_hits += 1
    else:
        positions = dynamic_positions(vectors, rung)
        entry = ctx.cache.register(key, pf.name, positions,
                                   tuple(pf.params[i] for i in positions))
        ctx.stats.specializations += 1
        bound = [(Var(param), vector) if i in positions
                 else (Const(vector.pe.constant()), vector)
                 for i, (param, vector) in enumerate(zip(pf.params, vectors))]
        # Fresh unfold budget: termination now rests on the cache.
        depth, ctx.depth = ctx.depth, 0
        body, _ = yield enter(pf, ctx, bound)
        ctx.depth = depth
        ctx.cache.finish(entry, FunDef(entry.name, entry.params, body))
    ctx.charge_node()
    args = tuple(pairs[i][0] for i in entry.dynamic_positions)
    return Call(entry.name, args), pf.suite.unknown(None)


# -- entry and exit -------------------------------------------------------

class Walk:
    """One program ready to specialize: the facet suite, the engine
    config and a profile per function.  A driver supplies
    :meth:`enter`, and may refuse inputs in :meth:`check`."""

    #: What :func:`engine_guard` names when it wraps a stray exception.
    stage = "specialization"

    def __init__(self, suite: FacetSuite, config: PEConfig,
                 profiles: Mapping[str, FunctionProfile],
                 main: str) -> None:
        self.suite = suite
        self.config = config
        self.profiles = dict(profiles)
        self.main = self.profiles[main]

    def check(self, vectors: Sequence[FacetVector]) -> None:
        """Refuse inputs this driver cannot specialize on."""

    def enter(self, pf: FunctionProfile, ctx: Ctx,
              bound: Sequence[Pair]):
        """The walk of ``pf``'s body with its parameters bound to
        ``bound``: a generator for :func:`run_trampoline` that returns
        the residual body and its vector."""
        raise NotImplementedError

    def run(self, inputs: Sequence[FacetVector | Value]) \
            -> SpecializationResult:
        """Specialize the goal function on ``inputs``, in a run of its
        own.  Each input is either a concrete value (fully static) or a
        :class:`FacetVector` (e.g. ``suite.input("vector", size=3)`` for
        the paper's "dynamic vector of known size 3")."""
        main = self.main
        with engine_guard(self.stage):
            if len(inputs) != main.arity:
                raise PEError(
                    f"{main.name}: expected {main.arity} inputs, "
                    f"got {len(inputs)}")
            vectors = [self.suite.const_vector(value) if is_value(value)
                       else value for value in inputs]
            self.check(vectors)
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
            try:
                body, goal_vector = run_trampoline(
                    self.enter(main, ctx, pairs))
                if ctx.steps >= ctx.sync_at:
                    ctx.catch_up()  # the fuel backstop covers the tail
            finally:
                stats.record_phase("specialize",
                                   perf_counter() - ctx.started_at)
            stats.steps = ctx.steps
            stats.budget_used = ctx.used()
            goal = FunDef(main.name, tuple(goal_params), body)
            raw = Program((goal, *ctx.cache.residual_defs()))
            return SpecializationResult(
                finish_residual(raw, self.config, stats), raw,
                goal_vector, stats, tuple(goal_params))

    #: Every engine's entry (the offline specializer adds its analysis).
    specialize = run
