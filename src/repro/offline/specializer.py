"""Offline parameterized specialization (Section 5).

The offline specializer does **not** search for reductions: the facet
analysis already decided, per program point, what happens there —

* ``FOLD``: every argument is static; execute the primitive concretely;
* ``TRIGGER(j)``: facet ``j``'s open operator produces the constant; run
  exactly that operator (this is "selects the corresponding reduction
  operations prior to specialization");
* ``RESIDUAL``: emit residual code; compute closed facet operators only
  for the facets the analysis marked *needed* in the enclosing function
  (for the inner-product example that means: size computation in
  ``iprod`` only, none in ``dotProd`` — the paper's Section 6.2
  observation).

Conditionals reduce exactly where the analysis marked the test Static;
calls use the same ``APP`` strategy as the online specializer
(:func:`repro.online.config.decide_call`), but cache keys only contain
the facet components the *callee* needs, which makes specialization
patterns coarser and cache hits more frequent.

The specializer still threads facet vectors — it must, to have the
actual constants (the vector size 3) available where the analysis said a
facet triggers — but per function it tracks only the needed facets, and
its per-primitive work is O(needed) instead of O(all facets): the
efficiency claim of the introduction, measured by
``benchmarks/bench_decisions.py``.

Inputs must match the analyzed pattern (be at or below it in the
abstract order); mismatched inputs are rejected at entry.  Inside a
matching run, a Static annotation can still meet a residual value in
one case only — a static subexpression *errored* (the paper's "modulo
termination" bottom caveat) — and then the specializer residualizes, so
the error surfaces at run time instead of specialization time.

Like the online engine, the walk runs on the generator trampoline of
:mod:`repro.engine.trampoline` (constant Python stack depth) and meters
its work against the config's :class:`~repro.engine.budget.Budget`.
Budget-forced widening collapses a call onto the all-dynamic variant
(the lenient rung-2 path) — safe here because a Static annotation
meeting a residual value residualizes via the bottom caveat above.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Mapping, Sequence

from repro.engine.budget import STEP_STRIDE
from repro.engine.errors import BudgetExhausted, engine_guard
from repro.engine.trampoline import run_trampoline
from repro.lang.ast import (
    Call, Const, Expr, FunDef, If, Let, Prim, Var, count_occurrences)
from repro.lang.errors import EvalError, PEError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lang.program import Program
from repro.lang.values import Value, is_value
from repro.lattice.pevalue import PEValue
from repro.facets.vector import FacetSuite, FacetVector
from repro.offline.analysis import (
    AnalysisResult, CallAnnotation, FOLD, IfAnnotation, PrimAnnotation,
    RESIDUAL, TRIGGER)
from repro.online.cache import (
    SpecCache, dynamic_positions, generalization_rung, generalize,
    make_key)
from repro.online.config import (
    UNFOLD, WIDEN, PEConfig, PEStats, decide_call)
from repro.transform.simplify import close_let, finish_residual


@dataclass(frozen=True)
class OfflineResult:
    """Residual program and counters from one offline run."""

    program: Program
    raw_program: Program
    stats: PEStats
    goal_params: tuple[str, ...]
    analysis: AnalysisResult


@dataclass
class _Binding:
    expr: Expr
    vector: FacetVector


class OfflineSpecializer:
    """The specialization phase of offline parameterized PE."""

    def __init__(self, analysis: AnalysisResult,
                 suite: FacetSuite,
                 config: PEConfig | None = None) -> None:
        self.analysis = analysis
        self.program = analysis.program
        self.functions = self.program.functions()
        self.suite = suite
        self.config = config if config is not None else PEConfig()
        self.stats = PEStats()
        self.cache = SpecCache(reserved_names=list(self.functions))
        self.budget = self.config.make_budget()
        self._gensym = 0
        #: facet-name -> Facet, for trigger dispatch.
        self._facets = {facet.name: facet for facet in suite.facets}
        #: ``(needed, sort) -> None | (keep flags)``: ``None`` means
        #: every facet of the sort is needed (restrict is identity).
        self._restrict_masks: dict[tuple, object] = {}
        #: ``(needed, carrier) -> ((facet, needed?), ...)``: the
        #: closed-op plan of :meth:`_residual_prim` (un-needed slots
        #: take the facet's top without a set probe).
        self._closed_plans: dict[tuple, tuple] = {}

    # -- entry point ---------------------------------------------------------
    def specialize(self, inputs: Sequence[FacetVector | Value]) \
            -> OfflineResult:
        """Specialize on inputs matching the analyzed pattern."""
        main = self.program.main
        if len(inputs) != main.arity:
            raise PEError(
                f"{main.name}: expected {main.arity} inputs, "
                f"got {len(inputs)}")
        with engine_guard("offline specialization"):
            vectors = [self.suite.const_vector(value) if is_value(value)
                       else value for value in inputs]
            self._check_pattern(vectors)

            needed = self.analysis.needed_facets.get(main.name,
                                                     frozenset())
            env: dict[str, _Binding] = {}
            goal_params = []
            for param, vector in zip(main.params, vectors):
                vector = self._restrict(vector, needed)
                if vector.pe.is_const:
                    env[param] = _Binding(Const(vector.pe.constant()),
                                          vector)
                else:
                    env[param] = _Binding(Var(param), vector)
                    goal_params.append(param)

            self.budget.start()
            started = perf_counter()
            try:
                body, _ = run_trampoline(
                    self._pe(main.body, env, main.name, depth=0))
            finally:
                self.stats.record_phase("specialize",
                                        perf_counter() - started)
                self.budget.charge_steps(self.stats.steps)
                self.stats.budget_used = self.budget.used()

            goal = FunDef(main.name, tuple(goal_params), body)
            raw = Program((goal, *self.cache.residual_defs()))
            cleaned = finish_residual(raw, self.config, self.stats)
            return OfflineResult(cleaned, raw, self.stats,
                                 tuple(goal_params), self.analysis)

    def _check_pattern(self, vectors: Sequence[FacetVector]) -> None:
        """Inputs must lie at or below the analyzed abstract pattern."""
        if self.config.lenient:
            # Lenient mode accepts off-pattern inputs; broken Static
            # promises residualize instead of folding.
            return
        abstract = [self.analysis.suite.abstract_of_online(v)
                    for v in vectors]
        for i, (given, analyzed) in enumerate(
                zip(abstract, self.analysis.inputs)):
            if not self.analysis.suite.leq(given, analyzed):
                raise PEError(
                    f"input {i} ({given}) does not match the analyzed "
                    f"pattern ({analyzed}); rerun the facet analysis "
                    f"for this division")

    # -- restricted facet tracking ---------------------------------------------
    def _needed(self, fn: str) -> frozenset[str]:
        return self.analysis.needed_facets.get(fn, frozenset())

    def _restrict(self, vector: FacetVector,
                  needed: frozenset[str]) -> FacetVector:
        """Drop (top out) components of facets the function does not
        need, so the run does no work to maintain them."""
        key = (needed, vector.sort)
        try:
            mask = self._restrict_masks[key]
        except KeyError:
            facets = self.suite.facets_for(vector.sort)
            keep = tuple(facet.name in needed for facet in facets)
            mask = None if all(keep) else keep
            self._restrict_masks[key] = mask
        if mask is None:
            return vector
        facets = self.suite.facets_for(vector.sort)
        user = tuple(component if kept else facet.domain.top
                     for kept, facet, component
                     in zip(mask, facets, vector.user))
        return self.suite.make_vector(vector.sort, vector.pe, user)

    def _const_vector(self, value: Value,
                      needed: frozenset[str]) -> FacetVector:
        return self._restrict(self.suite.const_vector(value), needed)

    # -- the specialization walk -------------------------------------------------
    def _leaf(self, expr: Expr, env: Mapping[str, _Binding],
              fn: str) -> tuple[Expr, FacetVector] | None:
        """Evaluate a leaf node without a trampoline round trip (the
        same work — including the fuel tick — as :meth:`_pe`'s leaf
        cases); ``None`` for non-leaves."""
        if isinstance(expr, Var):
            self._tick()
            binding = env.get(expr.name)
            if binding is None:
                raise PEError(f"unbound variable {expr.name!r}")
            return binding.expr, binding.vector
        if isinstance(expr, Const):
            self._tick()
            return expr, self._const_vector(expr.value,
                                            self._needed(fn))
        return None

    def _pe(self, expr: Expr, env: Mapping[str, _Binding], fn: str,
            depth: int):
        self._tick()
        if isinstance(expr, Const):
            return expr, self._const_vector(expr.value, self._needed(fn))
        if isinstance(expr, Var):
            binding = env.get(expr.name)
            if binding is None:
                raise PEError(f"unbound variable {expr.name!r}")
            return binding.expr, binding.vector
        if isinstance(expr, Prim):
            return (yield from self._pe_prim(expr, env, fn, depth))
        if isinstance(expr, If):
            return (yield from self._pe_if(expr, env, fn, depth))
        if isinstance(expr, Let):
            return (yield from self._pe_let(expr, env, fn, depth))
        if isinstance(expr, Call):
            return (yield from self._pe_call(expr, env, fn, depth))
        raise PEError(
            f"higher-order node {type(expr).__name__} reached the "
            f"first-order offline specializer")

    def _pe_prim(self, expr: Prim, env: Mapping[str, _Binding],
                 fn: str, depth: int):
        needed = self._needed(fn)
        residual_args = []
        vectors = []
        for arg in expr.args:
            pair = self._leaf(arg, env, fn)
            arg_expr, arg_vector = pair if pair is not None \
                else (yield self._pe(arg, env, fn, depth))
            residual_args.append(arg_expr)
            vectors.append(arg_vector)
        annotation = self.analysis.annotation_of(expr)
        action = annotation.action \
            if isinstance(annotation, PrimAnnotation) else RESIDUAL

        if action == FOLD:
            if all(isinstance(a, Const) for a in residual_args):
                values = [
                    a.value for a in residual_args]  # type: ignore[union-attr]
                if fold_would_blow_up(expr.op, values):
                    return self._residual_prim(expr.op, residual_args,
                                               vectors, fn)
                try:
                    value = apply_primitive(expr.op, values)
                except EvalError:
                    return self._residual_prim(expr.op, residual_args,
                                               vectors, fn)
                self.stats.facet_evaluations += 1
                self.stats.record_fold("pe")
                return (Const(value),
                        self._const_vector(value, needed))
            # Inputs were pattern-checked at entry, so a residual
            # argument under a Static annotation can only be the
            # paper's "modulo termination" caveat: a static
            # subexpression errored (bottom) and was residualized.
            # Residualize here too — the error stays at run time.
            return self._residual_prim(expr.op, residual_args, vectors,
                                       fn)

        if action == TRIGGER:
            assert isinstance(annotation, PrimAnnotation)
            producer = annotation.producer or ""
            facet = self._facets.get(producer)
            outcome = None
            if facet is not None:
                sig = self.suite.resolve_sig(expr.op, vectors)
                if sig is not None:
                    projected = self.suite.project_args(
                        facet, sig, vectors)
                    self.stats.facet_evaluations += 1
                    outcome = facet.apply_open(expr.op, sig, projected)
            if outcome is not None and outcome.is_const:
                self.stats.record_fold(producer)
                value = outcome.constant()
                return (Const(value),
                        self._const_vector(value, needed))
            # Same bottom-caveat reasoning as FOLD above.
            return self._residual_prim(expr.op, residual_args, vectors,
                                       fn)

        return self._residual_prim(expr.op, residual_args, vectors, fn)

    def _residual_prim(self, op: str, residual_args: Sequence[Expr],
                       vectors: Sequence[FacetVector],
                       fn: str) -> tuple[Expr, FacetVector]:
        """Residual primitive: maintain only the needed facets' closed
        components for downstream triggers."""
        needed = self._needed(fn)
        sig = self.suite.resolve_sig(op, vectors)
        residual = Prim(op, tuple(residual_args))
        self.budget.charge_nodes()
        if sig is None:
            return residual, self.suite.unknown(None)
        if any(self.suite.is_bottom(v) for v in vectors):
            return residual, self.suite.bottom(sig.result_sort)
        if sig.is_closed:
            plan_key = (needed, sig.carrier)
            try:
                plan = self._closed_plans[plan_key]
            except KeyError:
                plan = tuple(
                    (facet, facet.name in needed)
                    for facet in self.suite.facets_for(sig.carrier))
                self._closed_plans[plan_key] = plan
            components = []
            for facet, is_needed in plan:
                if is_needed:
                    projected = self.suite.project_args(
                        facet, sig, vectors)
                    self.stats.facet_evaluations += 1
                    components.append(
                        facet.apply_closed(op, sig, projected))
                else:
                    components.append(facet.domain.top)
            vector = self.suite.smash(self.suite.make_vector(
                sig.result_sort, PEValue.top(), tuple(components)))
            return residual, vector
        return residual, self.suite.unknown(sig.result_sort)

    def _pe_if(self, expr: If, env: Mapping[str, _Binding], fn: str,
               depth: int):
        annotation = self.analysis.annotation_of(expr)
        static_test = isinstance(annotation, IfAnnotation) \
            and annotation.test_bt.is_static
        pair = self._leaf(expr.test, env, fn)
        test_expr, _ = pair if pair is not None \
            else (yield self._pe(expr.test, env, fn, depth))
        if static_test:
            if isinstance(test_expr, Const) \
                    and isinstance(test_expr.value, bool):
                self.stats.if_reductions += 1
                branch = expr.then if test_expr.value else expr.else_
                pair = self._leaf(branch, env, fn)
                if pair is not None:
                    return pair
                return (yield self._pe(branch, env, fn, depth))
            # Bottom caveat again: the static test errored upstream and
            # was residualized; keep the conditional residual.
        pair = self._leaf(expr.then, env, fn)
        then_expr, then_vector = pair if pair is not None \
            else (yield self._pe(expr.then, env, fn, depth))
        pair = self._leaf(expr.else_, env, fn)
        else_expr, else_vector = pair if pair is not None \
            else (yield self._pe(expr.else_, env, fn, depth))
        joined = self.suite.join(then_vector, else_vector)
        self.budget.charge_nodes()
        return If(test_expr, then_expr, else_expr), joined

    def _pe_let(self, expr: Let, env: Mapping[str, _Binding], fn: str,
                depth: int):
        pair = self._leaf(expr.bound, env, fn)
        bound_expr, bound_vector = pair if pair is not None \
            else (yield self._pe(expr.bound, env, fn, depth))
        if isinstance(bound_expr, (Const, Var)):
            inner = dict(env)
            inner[expr.name] = _Binding(bound_expr, bound_vector)
            pair = self._leaf(expr.body, inner, fn)
            if pair is not None:
                return pair
            return (yield self._pe(expr.body, inner, fn, depth))
        fresh = self._fresh(expr.name)
        inner = dict(env)
        inner[expr.name] = _Binding(Var(fresh), bound_vector)
        pair = self._leaf(expr.body, inner, fn)
        body_expr, body_vector = pair if pair is not None \
            else (yield self._pe(expr.body, inner, fn, depth))
        return close_let(self.budget, fresh, bound_expr, body_expr), \
            body_vector

    # -- APP -----------------------------------------------------------------------
    def _pe_call(self, expr: Call, env: Mapping[str, _Binding],
                 fn: str, depth: int):
        fundef = self.functions.get(expr.fn)
        if fundef is None:
            raise PEError(f"call to unknown function {expr.fn!r}")
        callee_needed = self._needed(expr.fn)
        residual_args = []
        vectors = []
        for arg in expr.args:
            pair = self._leaf(arg, env, fn)
            arg_expr, arg_vector = pair if pair is not None \
                else (yield self._pe(arg, env, fn, depth))
            residual_args.append(arg_expr)
            # The callee only tracks its needed facets.
            vectors.append(self._restrict(arg_vector, callee_needed))
        self.stats.decisions += 1
        decision = decide_call(self, fundef.name, depth, self.stats.steps,
                               any(map(self.suite.informative, vectors)))
        if decision is UNFOLD:
            return (yield self._unfold(fundef, residual_args, vectors,
                                       depth + 1))
        return (yield self._specialize_call(
            fundef, residual_args, vectors, widen=decision is WIDEN))

    def _unfold(self, fundef: FunDef, residual_args: Sequence[Expr],
                vectors: Sequence[FacetVector],
                depth: int):
        env: dict[str, _Binding] = {}
        lets: list[tuple[str, Expr]] = []
        for param, arg_expr, vector in zip(fundef.params, residual_args,
                                           vectors):
            trivial = isinstance(arg_expr, (Const, Var))
            if trivial or count_occurrences(fundef.body, param) <= 1:
                env[param] = _Binding(arg_expr, vector)
            else:
                fresh = self._fresh(param)
                lets.append((fresh, arg_expr))
                env[param] = _Binding(Var(fresh), vector)
        pair = self._leaf(fundef.body, env, fundef.name)
        body_expr, body_vector = pair if pair is not None \
            else (yield self._pe(fundef.body, env, fundef.name, depth))
        for fresh, bound in reversed(lets):
            body_expr = close_let(self.budget, fresh, bound, body_expr)
        return body_expr, body_vector

    def _specialize_call(self, fundef: FunDef,
                         residual_args: Sequence[Expr],
                         vectors: Sequence[FacetVector],
                         widen: bool = False):
        rung = generalization_rung(self.cache, fundef.name,
                                   self.config.max_variants, widen)
        if rung == 2 and not widen and not self.config.lenient:
            # Static data grows under dynamic control.  Classic offline
            # PE diverges here: making the argument dynamic would break
            # the analysis's Static promises.  Lenient mode residualizes
            # the mismatches; otherwise fail with advice.  A
            # budget-forced widening never raises: a Static annotation
            # meeting a now-dynamic value residualizes via the bottom
            # caveat, so correctness holds.
            raise PEError(
                f"{fundef.name}: more than "
                f"{2 * self.config.max_variants} specialization "
                f"variants — static data grows under dynamic "
                f"control; re-analyze with a generalized division "
                f"or set PEConfig(lenient=True)")
        if rung:
            self.stats.generalizations += 1
            vectors = generalize(self.suite, vectors, rung)
        key = make_key(self.suite, fundef.name, vectors, rung)
        positions = dynamic_positions(vectors, rung)
        entry = self.cache.lookup(key)
        if entry is None:
            entry = self.cache.register(
                key, fundef.name, positions,
                tuple(fundef.params[i] for i in positions))
            self.stats.specializations += 1
            env: dict[str, _Binding] = {}
            for i, (param, vector) in enumerate(
                    zip(fundef.params, vectors)):
                if i in positions:
                    env[param] = _Binding(Var(param), vector)
                else:
                    env[param] = _Binding(
                        Const(vector.pe.constant()), vector)
            pair = self._leaf(fundef.body, env, fundef.name)
            body_expr, _ = pair if pair is not None \
                else (yield self._pe(fundef.body, env, fundef.name,
                                     depth=0))
            self.cache.finish(
                entry, FunDef(entry.name, entry.params, body_expr))
        else:
            self.stats.cache_hits += 1
        call_args = tuple(residual_args[i]
                          for i in entry.dynamic_positions)
        self.budget.charge_nodes()
        return Call(entry.name, call_args), self.suite.unknown(None)

    # -- plumbing --------------------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._gensym += 1
        return f"{base}!{self._gensym}"

    def _tick(self) -> None:
        steps = self.stats.steps = self.stats.steps + 1
        if steps > self.config.fuel:
            raise BudgetExhausted(
                f"specialization exceeded {self.config.fuel} steps",
                dimension="fuel", limit=self.config.fuel,
                used=self.stats.steps)
        if self.budget.limited and steps & (STEP_STRIDE - 1) == 0:
            self.budget.charge_steps(steps)


def specialize_offline(program: Program,
                       inputs: Sequence[FacetVector | Value],
                       suite: FacetSuite,
                       analysis: AnalysisResult | None = None,
                       config: PEConfig | None = None) -> OfflineResult:
    """Analyze (if no analysis is supplied) and specialize.

    When reusing one analysis across many input instances — the whole
    point of the offline strategy — run
    :func:`repro.offline.analysis.analyze` once and pass its result.
    """
    if analysis is None:
        from repro.facets.abstract.vector import AbstractSuite
        abstract_suite = AbstractSuite(suite)
        pattern = [abstract_suite.abstract_of_online(
            v if not is_value(v) else suite.const_vector(v))
            for v in inputs]
        from repro.offline.analysis import analyze as run_analysis
        analysis = run_analysis(program, pattern, abstract_suite)
    return OfflineSpecializer(analysis, suite, config).specialize(inputs)
