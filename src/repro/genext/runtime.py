"""Runtime library of *emitted* generating extensions.

An emitted genext module (see :mod:`repro.genext.emit`) is flat Python:
one function per subject-program function whose body is the walk of
:class:`repro.offline.specializer.OfflineSpecializer` with every
annotation lookup, environment dictionary and node-type dispatch
compiled away.  What cannot be decided at emission time — folding a
primitive whose arguments turn out residual, the unfold-or-specialize
choice at a call, the facet join at a dynamic conditional — is
delegated to the helpers in this module, which mirror the offline
specializer *operation by operation* so the residual programs (names,
gensym order, statistics) stay byte-identical to it.  The call choice
is the engines' shared ``APP``, :func:`repro.online.config.decide_call`,
taken at run time with :class:`Ctx` as the deciding run; the
generalization ladder and the residual-``let`` rule are shared too.

Budgets follow the offline specializer's protocol on the same
:class:`~repro.engine.budget.Budget`.  The offline walk ticks once per
AST node visit, so the emitter bakes each straight-line segment's node
count into a ``ctx.steps += n`` placed before control leaves the
segment (a helper call, a branch call, a return).  Every helper that
charges a residual node or takes a call decision first catches the
meter up (:func:`_catch_up`): the ``STEP_STRIDE`` sync, the ``fuel``
backstop and the order in which steps and residual nodes run out all
match the offline walk, so a degraded residual and its
:class:`~repro.engine.budget.DegradeEvent` log are byte-identical too.

The module-level protocol: the emitted module builds a
:class:`GenextRuntime` from its baked manifest (facet-suite layout,
engine config, generalized input pattern, per-function needed-facet
sets and parameter occurrence counts) plus its emitted decision
functions, and re-exports :meth:`GenextRuntime.specialize`.  Importing
a genext performs **no parsing and no facet analysis** of the subject
program — that is the amortization the service's ``genext`` engine
buys: analysis cost is paid once per ``(source, config)``, not per
spec vector.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Mapping, Sequence

from repro.engine.budget import STEP_STRIDE, Budget
from repro.engine.errors import BudgetExhausted
from repro.lang.ast import Call, Const, Expr, FunDef, If, Prim, Var
from repro.lang.errors import EvalError, PEError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lang.program import Program
from repro.lang.values import Value, Vector, is_value
from repro.lattice.pevalue import PEValue
from repro.facets import (
    ConstSetFacet, FacetSuite, FacetVector, IntervalFacet, ParityFacet,
    SignFacet, VectorSizeFacet)
from repro.facets.abstract.vector import AbstractSuite, AbstractVector
from repro.online.cache import (
    SpecCache, dynamic_positions, generalization_rung, generalize,
    make_key)
from repro.online.config import (
    UNFOLD, WIDEN, PEConfig, PEStats, decide_call)
from repro.transform.simplify import close_let, finish_residual

#: The emitted walk recurses on the Python stack (the offline
#: specializer runs on a trampoline instead).
_RECURSION_LIMIT = 100_000

#: Bumped when the emitted-module protocol changes; a persisted genext
#: with a different version fails to bind and is re-emitted.
#: 2: budget-metered modules (step counts baked into emitted code).
GENEXT_PROTOCOL = 2

#: Non-finite float literals, referenced by name from emitted modules.
_inf = float("inf")
_nan = float("nan")


def _vec(items: Sequence[float | None]) -> Vector:
    """Vector literals in emitted const cells (holes stay ``None``)."""
    return Vector(tuple(items))


# -- suite reconstruction --------------------------------------------------

def facet_name_of(facet: object) -> str:
    """The wire name of a shipped facet; :class:`PEError` for facets
    the emitted-module manifest cannot describe."""
    if isinstance(facet, ConstSetFacet):
        from repro.facets.library.constset import DEFAULT_LIMIT
        limit = facet.domain.limit
        return ("constset" if limit == DEFAULT_LIMIT
                else f"constset<={limit}")
    name = getattr(facet, "name", None)
    if name is None or facet_from_name(str(name), probe=True) is None:
        raise PEError(
            f"cannot emit a generating extension over facet "
            f"{facet!r}: only the shipped facets "
            f"(sign/parity/interval/size/constset) have a stable "
            f"wire name")
    return str(name)


def facet_from_name(name: str, probe: bool = False):
    """Rebuild a shipped facet from its wire name (``None`` when
    probing an unknown name)."""
    if name == "sign":
        return SignFacet()
    if name == "parity":
        return ParityFacet()
    if name == "interval":
        return IntervalFacet()
    if name == "size":
        return VectorSizeFacet()
    if name == "constset":
        return ConstSetFacet()
    if name.startswith("constset<="):
        try:
            return ConstSetFacet(int(name[len("constset<="):]))
        except ValueError:
            pass
    if probe:
        return None
    raise PEError(f"unknown facet name {name!r} in genext manifest")


def suite_from_names(names: Sequence[str]) -> FacetSuite:
    return FacetSuite([facet_from_name(name) for name in names])


def pattern_vector(descriptor: Mapping[str, Any],
                   online: FacetSuite,
                   abstract: AbstractSuite) -> AbstractVector:
    """One analyzed input from its manifest descriptor (see
    :func:`repro.genext.emit.generalized_pattern`)."""
    kind = descriptor.get("kind")
    if kind == "dyn":
        return abstract.dynamic(None)
    if kind == "static":
        return abstract.static(descriptor.get("sort"))
    if kind == "spec":
        from repro.service.specs import parse_spec
        vector = parse_spec(online, str(descriptor["text"]))
        if is_value(vector):
            return abstract.static(descriptor.get("sort"))
        return abstract.abstract_of_online(vector)
    raise PEError(f"unknown pattern descriptor {descriptor!r}")


# -- per-specialization state ----------------------------------------------

@dataclass(frozen=True)
class GenExtResult:
    """Residual program and counters from one generating-extension
    run."""

    program: Program
    raw_program: Program
    stats: PEStats
    goal_params: tuple[str, ...]


class Ctx:
    """Per-specialization mutable state: what the offline specializer
    keeps on ``self`` for one run (config, residual cache, counters,
    budget meter, gensym), so gensym numbering — and with it residual
    text — is identical."""

    __slots__ = ("config", "cache", "stats", "budget", "fuel", "depth",
                 "gensym", "steps", "sync_at")

    def __init__(self, config: PEConfig, cache: SpecCache,
                 stats: PEStats, budget: Budget) -> None:
        self.config = config
        self.cache = cache
        self.stats = stats
        self.budget = budget
        self.fuel = config.fuel
        self.depth = 0
        self.gensym = 0
        #: The offline walk's tick count so far (``PEStats.steps``).
        self.steps = 0
        #: The step count at which the meter must look next: the next
        #: ``STEP_STRIDE`` multiple, or ``fuel + 1`` if that is sooner.
        self.sync_at = min(STEP_STRIDE, self.fuel + 1)

    def fresh(self, base: str) -> str:
        self.gensym += 1
        return f"{base}!{self.gensym}"


def _catch_up(ctx: Ctx) -> None:
    """The offline specializer's per-tick checks for the steps added
    since the last look (callers test ``ctx.steps >= ctx.sync_at``):
    past ``fuel`` raise; otherwise sync the budget at the last
    ``STEP_STRIDE`` multiple reached, as the offline walk did there."""
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
    """Everything the runtime knows about one subject function: its
    emitted decision body, the analysis' needed-facet set (as
    precomputed per-sort restriction masks) and baked parameter
    occurrence counts (what the offline walk recomputes per unfold)."""

    __slots__ = ("name", "params", "arity", "needed", "occurrences",
                 "body", "rt", "_masks")

    def __init__(self, rt: "GenextRuntime", name: str,
                 params: Sequence[str], needed: Sequence[str],
                 occurrences: Mapping[str, int]) -> None:
        self.rt = rt
        self.name = name
        self.params = tuple(params)
        self.arity = len(self.params)
        self.needed = frozenset(needed)
        self.occurrences = dict(occurrences)
        self.body: Callable[..., tuple[Expr, FacetVector]] | None = None
        self._masks: dict[str | None, tuple[bool, ...] | None] = {}

    def restrict(self, vector: FacetVector) -> FacetVector:
        """``OfflineSpecializer._restrict``: top out the components of
        facets this function does not need (per-sort mask cached)."""
        sort = vector.sort
        try:
            mask = self._masks[sort]
        except KeyError:
            facets = self.rt.online.facets_for(sort)
            keep = tuple(facet.name in self.needed for facet in facets)
            mask = None if all(keep) else keep
            self._masks[sort] = mask
        if mask is None:
            return vector
        suite = self.rt.online
        facets = suite.facets_for(sort)
        user = tuple(
            component if kept else facet.domain.top
            for kept, facet, component
            in zip(mask, facets, vector.user))
        return suite.make_vector(sort, vector.pe, user)


class GenextRuntime:
    """The bound state of one emitted genext module."""

    def __init__(self, manifest: Mapping[str, Any],
                 functions: Mapping[str, Callable]) -> None:
        if manifest.get("protocol") != GENEXT_PROTOCOL:
            raise PEError(
                f"genext protocol {manifest.get('protocol')!r} != "
                f"{GENEXT_PROTOCOL}; re-emit the module")
        self.manifest = dict(manifest)
        self.online = suite_from_names(manifest["facets"])
        self.abstract = AbstractSuite(self.online)
        from repro.service.results import _decode_config_value
        self.config = PEConfig(**{
            name: _decode_config_value(name, value)
            for name, value in dict(manifest.get("config") or {}).items()})
        self.pattern = tuple(
            pattern_vector(d, self.online, self.abstract)
            for d in manifest["pattern"])
        self._facets = {facet.name: facet
                        for facet in self.online.facets}
        self.profiles: dict[str, FunctionProfile] = {}
        self._order: list[str] = []
        for entry in manifest["functions"]:
            profile = FunctionProfile(
                self, entry["name"], entry["params"],
                entry.get("needed", ()), entry.get("occurrences", {}))
            profile.body = functions[entry["name"]]
            self.profiles[entry["name"]] = profile
            self._order.append(entry["name"])
        self.main = self.profiles[manifest["main"]]

    # -- module-level cells -------------------------------------------
    def profile(self, name: str) -> FunctionProfile:
        return self.profiles[name]

    def facet(self, name: str | None):
        if name is None:
            return None
        return self._facets.get(name)

    def const_pair(self, fn: str, value: Value) \
            -> tuple[Expr, FacetVector]:
        """A baked constant cell: the pair the offline walk builds at
        every visit of this literal."""
        profile = self.profiles[fn]
        return (Const(value),
                profile.restrict(self.online.const_vector(value)))

    # -- driving -------------------------------------------------------
    def specialize(self, inputs: Sequence[FacetVector | Value]) \
            -> GenExtResult:
        """Specialize on inputs matching the analyzed pattern (the
        emitted twin of :meth:`OfflineSpecializer.specialize`)."""
        main = self.main
        if len(inputs) != main.arity:
            raise PEError(
                f"{main.name}: expected {main.arity} inputs, "
                f"got {len(inputs)}")
        suite = self.online
        vectors = [suite.const_vector(value) if is_value(value)
                   else value for value in inputs]
        self._check_pattern(vectors)
        pairs: list[tuple[Expr, FacetVector]] = []
        goal_params = []
        for param, vector in zip(main.params, vectors):
            vector = main.restrict(vector)
            if vector.pe.is_const:
                pairs.append((Const(vector.pe.constant()), vector))
            else:
                pairs.append((Var(param), vector))
                goal_params.append(param)
        budget = self.config.make_budget()
        stats = PEStats()
        ctx = Ctx(self.config, SpecCache(reserved_names=list(self._order)),
                  stats, budget)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
        budget.start()
        started = perf_counter()
        try:
            body, _ = main.body(ctx, *pairs)
            if ctx.steps >= ctx.sync_at:
                _catch_up(ctx)  # the fuel backstop covers the tail
        finally:
            stats.record_phase("specialize", perf_counter() - started)
            sys.setrecursionlimit(old_limit)
        budget.charge_steps(ctx.steps)
        stats.steps = ctx.steps
        stats.budget_used = budget.used()
        goal = FunDef(main.name, tuple(goal_params), body)
        raw = Program((goal, *ctx.cache.residual_defs()))
        cleaned = finish_residual(raw, self.config, stats)
        return GenExtResult(cleaned, raw, stats, tuple(goal_params))

    def specialize_specs(self, specs: Sequence[str]) -> GenExtResult:
        """Convenience: parse spec strings against the baked suite."""
        from repro.service.specs import parse_specs
        return self.specialize(parse_specs(self.online, specs))

    def _check_pattern(self, vectors: Sequence[FacetVector]) -> None:
        if self.config.lenient:
            return
        abstract = [self.abstract.abstract_of_online(v)
                    for v in vectors]
        for i, (given, analyzed) in enumerate(
                zip(abstract, self.pattern)):
            if not self.abstract.leq(given, analyzed):
                raise PEError(
                    f"input {i} ({given}) does not match the analyzed "
                    f"pattern ({analyzed}); rerun the facet analysis "
                    f"for this division")


# -- decision helpers called from emitted code -----------------------------

def unbound(name: str) -> tuple[Expr, FacetVector]:
    """A variable the subject program references but never binds."""
    raise PEError(f"unbound variable {name!r}")


def fold(pf: FunctionProfile, ctx: Ctx, op: str,
         pairs: Sequence[tuple[Expr, FacetVector]]) \
        -> tuple[Expr, FacetVector]:
    """A FOLD-annotated primitive."""
    values = []
    for arg_expr, _ in pairs:
        if not isinstance(arg_expr, Const):
            # Bottom caveat: a static subexpression errored and was
            # residualized upstream.
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
    return (Const(value), pf.restrict(pf.rt.online.const_vector(value)))


def trigger(pf: FunctionProfile, ctx: Ctx, op: str,
            pairs: Sequence[tuple[Expr, FacetVector]], facet) \
        -> tuple[Expr, FacetVector]:
    """A TRIGGER-annotated primitive: the analysis promised ``facet``'s
    open operator yields the constant."""
    suite = pf.rt.online
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
        value = outcome.constant()
        return (Const(value),
                pf.restrict(suite.const_vector(value)))
    # Bottom caveat (see fold).
    return residual_prim(pf, ctx, op, pairs)


def residual_prim(pf: FunctionProfile, ctx: Ctx, op: str,
                  pairs: Sequence[tuple[Expr, FacetVector]]) \
        -> tuple[Expr, FacetVector]:
    """Keep the primitive residual, pushing closed facet operators
    through the needed components."""
    suite = pf.rt.online
    vectors = [pair[1] for pair in pairs]
    args = tuple(pair[0] for pair in pairs)
    sig = suite.resolve_sig(op, vectors)
    residual_expr = Prim(op, args)
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


def build_if(pf: FunctionProfile, ctx: Ctx, test_expr: Expr, then_pair,
             else_pair) -> tuple[Expr, FacetVector]:
    then_expr, then_vector = then_pair
    else_expr, else_vector = else_pair
    joined = pf.rt.online.join(then_vector, else_vector)
    _charge_node(ctx)
    return If(test_expr, then_expr, else_expr), joined


def let_exit(ctx: Ctx, fresh: str, bound_expr: Expr, pair) \
        -> tuple[Expr, FacetVector]:
    """Close a residual ``let`` (:func:`close_let`), after the steps
    that precede it."""
    if ctx.steps >= ctx.sync_at:
        _catch_up(ctx)
    body_expr, body_vector = pair
    return close_let(ctx.budget, fresh, bound_expr, body_expr), \
        body_vector


def residual_call(pf: FunctionProfile, ctx: Ctx,
                  pairs: Sequence[tuple[Expr, FacetVector]]) \
        -> tuple[Expr, FacetVector]:
    """The call decision (:func:`decide_call`), taken against the
    *callee's* profile."""
    restrict = pf.restrict
    vectors = [restrict(pair[1]) for pair in pairs]
    args = [pair[0] for pair in pairs]
    ctx.stats.decisions += 1
    if ctx.steps >= ctx.sync_at:
        _catch_up(ctx)
    decision = decide_call(ctx, pf.name, ctx.depth, ctx.steps,
                           any(map(pf.rt.online.informative, vectors)))
    if decision is UNFOLD:
        return _unfold(pf, args, vectors, ctx)
    return _specialize_call(pf, args, vectors, ctx,
                            widen=decision is WIDEN)


def _unfold(pf: FunctionProfile, args, vectors, ctx: Ctx) \
        -> tuple[Expr, FacetVector]:
    pairs: list[tuple[Expr, FacetVector]] = []
    lets: list[tuple[str, Expr]] = []
    occurrences = pf.occurrences
    for param, arg_expr, vector in zip(pf.params, args, vectors):
        trivial = isinstance(arg_expr, (Const, Var))
        if trivial or occurrences.get(param, 0) <= 1:
            pairs.append((arg_expr, vector))
        else:
            fresh = ctx.fresh(param)
            lets.append((fresh, arg_expr))
            pairs.append((Var(fresh), vector))
    ctx.depth += 1
    try:
        body_expr, body_vector = pf.body(ctx, *pairs)
    finally:
        ctx.depth -= 1
    pair = body_expr, body_vector
    for fresh, bound in reversed(lets):
        pair = let_exit(ctx, fresh, bound, pair)
    return pair


def _specialize_call(pf: FunctionProfile, args, vectors, ctx: Ctx,
                     widen: bool = False) -> tuple[Expr, FacetVector]:
    suite = pf.rt.online
    config = ctx.config
    rung = generalization_rung(ctx.cache, pf.name, config.max_variants,
                               widen)
    # Budget-forced widening never raises: a Static annotation meeting
    # a now-dynamic value residualizes (bottom caveat).
    if rung == 2 and not widen and not config.lenient:
        raise PEError(
            f"{pf.name}: more than {2 * config.max_variants} "
            f"specialization variants — static data grows under "
            f"dynamic control; re-analyze with a generalized "
            f"division or set PEConfig(lenient=True)")
    if rung:
        ctx.stats.generalizations += 1
        vectors = generalize(suite, vectors, rung)
    key = make_key(suite, pf.name, vectors, rung)
    positions = dynamic_positions(vectors, rung)
    entry = ctx.cache.lookup(key)
    if entry is None:
        entry = ctx.cache.register(
            key, pf.name, positions,
            tuple(pf.params[i] for i in positions))
        ctx.stats.specializations += 1
        pairs: list[tuple[Expr, FacetVector]] = []
        for i, (param, vector) in enumerate(zip(pf.params, vectors)):
            if i in positions:
                pairs.append((Var(param), vector))
            else:
                pairs.append((Const(vector.pe.constant()), vector))
        saved_depth = ctx.depth
        ctx.depth = 0
        try:
            body_expr, _ = pf.body(ctx, *pairs)
        finally:
            ctx.depth = saved_depth
        ctx.cache.finish(
            entry, FunDef(entry.name, entry.params, body_expr))
    else:
        ctx.stats.cache_hits += 1
    call_args = tuple(args[i] for i in entry.dynamic_positions)
    _charge_node(ctx)
    return Call(entry.name, call_args), suite.unknown(None)
