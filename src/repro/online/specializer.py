"""Online parameterized partial evaluation — Figure 3 of the paper.

The valuation function ``PE`` threads three things through the program:
the residual expression being built, the product-of-facets value
describing it, and the specialization cache ``Sf`` (state on the
specializer object; the semantics' single-threading is Python's
evaluation order).  Per expression form:

* constants propagate to every facet through ``K^``;
* primitives go through the product operators ``omega_p`` of
  Definition 5 (:meth:`FacetSuite.apply_prim`): a constant produced by
  *any* facet replaces the expression and is re-abstracted into all
  facets, exactly the ``K^_P`` clauses of the figure;
* a conditional whose test partially evaluated to a constant is reduced;
  otherwise both branches are specialized and their facet values joined;
* calls go through ``APP`` — the unfold-or-specialize strategy of
  :func:`repro.online.config.decide_call`, which every engine shares.

Over the empty suite this is Figure 2's ``SPE`` (Definition 7), which
is how :func:`repro.baselines.simple_pe.specialize_simple` runs it.

Two engineering layers sit on top of the figure:

**Trampolined recursion.**  ``PE`` recurses as deeply as the program
unfolds; Python's C stack does not.  Instead of raising
``sys.setrecursionlimit`` (the old band-aid, which deep programs could
still segfault), every ``_pe*`` method is a *generator* that yields the
sub-computations it needs; :func:`repro.engine.trampoline.run_trampoline`
drives them from an explicit heap-allocated stack, so the Python stack
depth stays constant no matter how deep specialization goes.  The
evaluation order is exactly that of the direct-recursive code, so
residuals are byte-identical.

**Resource governance.**  Every step charges the run's
:class:`~repro.engine.budget.Budget`; when a soft budget (steps, wall
clock, residual nodes, unfold depth) is exhausted the engine does not
raise — it *generalizes at the offending point*: the call's facet
vector is widened to Dynamic (top), a residual call is emitted instead
of unfolding further, and a DegradeEvent is recorded.  Specialization
then terminates with a correct but less-specialized residual.  Only the
hard ``fuel`` backstop (and ``strict_budgets=True``) still raises, as
:class:`~repro.engine.errors.BudgetExhausted`.

The paper notes (end of Section 4.4) that Figure 3 does not propagate
predicate properties into conditional branches (Redfun-style
constraints); neither do we — see FUTURE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Mapping, Sequence

from repro.engine.budget import STEP_STRIDE
from repro.engine.errors import BudgetExhausted, engine_guard
from repro.engine.trampoline import run_trampoline
from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var,
    count_occurrences)
from repro.lang.errors import PEError
from repro.lang.program import Program
from repro.lang.values import Value, is_value
from repro.facets.vector import FacetSuite, FacetVector
from repro.online.cache import (
    SpecCache, dynamic_positions, generalization_rung, generalize,
    make_key)
from repro.online.config import (
    UNFOLD, WIDEN, PEConfig, PEStats, decide_beta, decide_call)
from repro.transform.simplify import close_let, finish_residual


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


@dataclass
class _Binding:
    expr: Expr
    vector: FacetVector


class OnlineSpecializer:
    """``PE_Prog`` of Figure 3 for one program and facet suite (and,
    over ``FacetSuite()``, ``SPE_Prog`` of Figure 2)."""

    def __init__(self, program: Program, suite: FacetSuite | None = None,
                 config: PEConfig | None = None) -> None:
        program.validate()
        self.program = program
        self.functions = program.functions()
        self.suite = suite if suite is not None else FacetSuite()
        self.config = config if config is not None else PEConfig()
        self.stats = PEStats()
        self.cache = SpecCache(reserved_names=list(self.functions))
        self.budget = self.config.make_budget()
        self._gensym = 0

    # -- entry point ------------------------------------------------------
    def specialize(self, inputs: Sequence[FacetVector | Value]) \
            -> SpecializationResult:
        """Specialize the goal function with respect to ``inputs``.

        Each input is either a concrete value (fully static) or a
        :class:`FacetVector` (e.g. ``suite.input("vector", size=3)`` for
        the paper's "dynamic vector of known size 3").
        """
        main = self.program.main
        if len(inputs) != main.arity:
            raise PEError(
                f"{main.name}: expected {main.arity} inputs, "
                f"got {len(inputs)}")
        with engine_guard("online specialization"):
            vectors = [self.suite.const_vector(value) if is_value(value)
                       else value for value in inputs]
            env: dict[str, _Binding] = {}
            goal_params = []
            for param, vector in zip(main.params, vectors):
                assert isinstance(vector, FacetVector)
                if vector.pe.is_const:
                    env[param] = _Binding(Const(vector.pe.constant()),
                                          vector)
                else:
                    env[param] = _Binding(Var(param), vector)
                    goal_params.append(param)

            self.budget.start()
            started = perf_counter()
            try:
                body, vector = run_trampoline(self._pe(main.body, env,
                                                       depth=0))
            finally:
                self.stats.record_phase("specialize",
                                        perf_counter() - started)
                self.budget.charge_steps(self.stats.steps)
                self.stats.budget_used = self.budget.used()

            goal = FunDef(main.name, tuple(goal_params), body)
            raw = Program((goal, *self.cache.residual_defs()))
            cleaned = finish_residual(raw, self.config, self.stats)
            return SpecializationResult(cleaned, raw, vector, self.stats,
                                        tuple(goal_params))

    # -- the valuation function PE ----------------------------------------
    def _pe(self, expr: Expr, env: Mapping[str, _Binding],
            depth: int):
        self._tick()
        if isinstance(expr, Const):
            return expr, self.suite.const_vector(expr.value)
        if isinstance(expr, Var):
            binding = env.get(expr.name)
            if binding is None:
                # First-class reference to a top-level function.
                return expr, self.suite.unknown(None)
            return binding.expr, binding.vector
        if isinstance(expr, Prim):
            return (yield from self._pe_prim(expr, env, depth))
        if isinstance(expr, If):
            return (yield from self._pe_if(expr, env, depth))
        if isinstance(expr, Let):
            return (yield from self._pe_let(expr, env, depth))
        if isinstance(expr, Call):
            return (yield from self._pe_call(expr.fn, expr.args, env,
                                             depth))
        if isinstance(expr, Lam):
            return (yield from self._pe_lambda(expr, env, depth))
        if isinstance(expr, App):
            return (yield from self._pe_app(expr, env, depth))
        raise PEError(f"unknown expression node {expr!r}")

    def _pe_prim(self, expr: Prim, env: Mapping[str, _Binding],
                 depth: int):
        residual_args = []
        vectors = []
        for arg in expr.args:
            arg_expr, arg_vector = yield self._pe(arg, env, depth)
            residual_args.append(arg_expr)
            vectors.append(arg_vector)
        outcome = self.suite.apply_prim(expr.op, vectors)
        self.stats.facet_evaluations += outcome.facet_evaluations
        self.stats.decisions += 1
        if outcome.folded:
            self.stats.record_fold(outcome.producer or "pe")
            constant = outcome.vector.pe.constant()
            return Const(constant), outcome.vector
        self.budget.charge_nodes()
        return Prim(expr.op, tuple(residual_args)), outcome.vector

    def _pe_if(self, expr: If, env: Mapping[str, _Binding],
               depth: int):
        test_expr, test_vector = yield self._pe(expr.test, env, depth)
        self.stats.decisions += 1
        if isinstance(test_expr, Const) \
                and isinstance(test_expr.value, bool):
            self.stats.if_reductions += 1
            branch = expr.then if test_expr.value else expr.else_
            return (yield self._pe(branch, env, depth))
        then_env = else_env = env
        if self.config.propagate_constraints:
            then_env = self._constrained(env, test_expr, assume=True)
            else_env = self._constrained(env, test_expr, assume=False)
        then_expr, then_vector = yield self._pe(expr.then, then_env,
                                                depth)
        else_expr, else_vector = yield self._pe(expr.else_, else_env,
                                                depth)
        joined = self.suite.join(then_vector, else_vector)
        self.budget.charge_nodes()
        return If(test_expr, then_expr, else_expr), joined

    def _constrained(self, env: Mapping[str, _Binding], test: Expr,
                     assume: bool) -> Mapping[str, _Binding]:
        """The Section 4.4 extension: refine the facet values of
        variables the residual test talks about, under the branch's
        truth assumption (see :mod:`repro.online.constraints`)."""
        from repro.online.constraints import refine_branch_bindings
        lookup: dict[str, FacetVector] = {}
        holders: dict[str, list[str]] = {}
        for name, binding in env.items():
            if isinstance(binding.expr, Var):
                residual = binding.expr.name
                lookup.setdefault(residual, binding.vector)
                holders.setdefault(residual, []).append(name)
        refined = refine_branch_bindings(self.suite, test, lookup,
                                         assume)
        if not refined:
            return env
        updated = dict(env)
        for residual, vector in refined.items():
            expr: Expr = Var(residual)
            if vector.pe.is_const:
                # An assumed equality pinned the variable to a constant.
                expr = Const(vector.pe.constant())
            for name in holders.get(residual, ()):
                updated[name] = _Binding(expr, vector)
        self.stats.constraint_refinements += len(refined)
        return updated

    def _pe_let(self, expr: Let, env: Mapping[str, _Binding],
                depth: int):
        bound_expr, bound_vector = yield self._pe(expr.bound, env, depth)
        if isinstance(bound_expr, (Const, Var)):
            inner = dict(env)
            inner[expr.name] = _Binding(bound_expr, bound_vector)
            return (yield self._pe(expr.body, inner, depth))
        fresh = self._fresh(expr.name)
        inner = dict(env)
        inner[expr.name] = _Binding(Var(fresh), bound_vector)
        body_expr, body_vector = yield self._pe(expr.body, inner, depth)
        return close_let(self.budget, fresh, bound_expr, body_expr), \
            body_vector

    # -- APP: unfold or specialize -----------------------------------------
    def _pe_call(self, fn: str, args: Sequence[Expr],
                 env: Mapping[str, _Binding],
                 depth: int):
        fundef = self.functions.get(fn)
        if fundef is None:
            raise PEError(f"call to unknown function {fn!r}")
        residual_args = []
        vectors = []
        for arg in args:
            arg_expr, arg_vector = yield self._pe(arg, env, depth)
            residual_args.append(arg_expr)
            vectors.append(arg_vector)
        self.stats.decisions += 1
        return (yield self._apply(fundef, residual_args, vectors,
                                  depth))

    def _apply(self, fundef: FunDef, residual_args: Sequence[Expr],
               vectors: Sequence[FacetVector], depth: int):
        # A lambda-valued argument is static information the facet
        # vectors cannot see: unfold so the closure reaches its
        # application sites and beta-reduces.
        informative = any(map(self.suite.informative, vectors)) \
            or any(isinstance(arg, Lam) for arg in residual_args)
        decision = decide_call(self, fundef.name, depth,
                               self.stats.steps, informative)
        if decision is UNFOLD:
            return (yield self._unfold(fundef, residual_args, vectors,
                                       depth + 1))
        return (yield self._specialize_call(
            fundef, residual_args, vectors, widen=decision is WIDEN))

    def _unfold(self, fundef: FunDef, residual_args: Sequence[Expr],
                vectors: Sequence[FacetVector],
                depth: int):
        """Unfold a call: specialize the body in an environment binding
        parameters to the residual arguments.  Compound arguments whose
        parameter occurs more than once are let-bound to avoid
        duplicating residual work."""
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
        body_expr, body_vector = yield self._pe(fundef.body, env, depth)
        for fresh, bound in reversed(lets):
            body_expr = close_let(self.budget, fresh, bound, body_expr)
        return body_expr, body_vector

    def _specialize_call(self, fundef: FunDef,
                         residual_args: Sequence[Expr],
                         vectors: Sequence[FacetVector],
                         widen: bool = False):
        # A budget-forced widening collapses the call onto the fully
        # generic variant of the callee (rung 2 of the ladder), so at
        # most one new residual function per source function can still
        # be created, no matter how wild the call patterns.
        rung = generalization_rung(self.suite, self.cache, fundef.name,
                                   self.config.max_variants, widen)
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
            # Fresh unfold budget: termination now rests on the cache.
            body_expr, _ = yield self._pe(fundef.body, env, depth=0)
            self.cache.finish(
                entry, FunDef(entry.name, entry.params, body_expr))
        else:
            self.stats.cache_hits += 1
        call_args = tuple(residual_args[i]
                          for i in entry.dynamic_positions)
        self.budget.charge_nodes()
        return Call(entry.name, call_args), self.suite.unknown(None)

    # -- higher-order forms -------------------------------------------------
    def _pe_lambda(self, expr: Lam, env: Mapping[str, _Binding],
                   depth: int):
        """Specialize under the lambda with dynamic parameters; free
        variables keep their bindings (they may be static)."""
        inner = dict(env)
        renamed = []
        for param in expr.params:
            fresh = self._fresh(param)
            renamed.append(fresh)
            inner[param] = _Binding(Var(fresh), self.suite.unknown(None))
        body_expr, _ = yield self._pe(expr.body, inner, depth)
        self.budget.charge_nodes()
        return Lam(tuple(renamed), body_expr), self.suite.unknown(None)

    def _pe_app(self, expr: App, env: Mapping[str, _Binding],
                depth: int):
        fn_expr, _ = yield self._pe(expr.fn, env, depth)
        residual_args = []
        vectors = []
        for arg in expr.args:
            arg_expr, arg_vector = yield self._pe(arg, env, depth)
            residual_args.append(arg_expr)
            vectors.append(arg_vector)
        self.stats.decisions += 1
        if isinstance(fn_expr, Lam) \
                and decide_beta(self, depth, self.stats.steps):
            fundef = FunDef("<lambda>", fn_expr.params, fn_expr.body)
            return (yield self._unfold(fundef, residual_args, vectors,
                                       depth + 1))
        if isinstance(fn_expr, Var) and fn_expr.name in self.functions \
                and fn_expr.name not in env:
            fundef = self.functions[fn_expr.name]
            return (yield self._apply(fundef, residual_args, vectors,
                                      depth))
        self.budget.charge_nodes()
        return (App(fn_expr, tuple(residual_args)),
                self.suite.unknown(None))

    # -- plumbing -------------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._gensym += 1
        return f"{base}!{self._gensym}"

    def _tick(self) -> None:
        steps = self.stats.steps = self.stats.steps + 1
        if steps > self.config.fuel:
            raise BudgetExhausted(
                f"partial evaluation exceeded {self.config.fuel} steps; "
                f"a static loop in the subject program may diverge",
                dimension="fuel", limit=self.config.fuel,
                used=self.stats.steps)
        if self.budget.limited and steps & (STEP_STRIDE - 1) == 0:
            self.budget.charge_steps(steps)


def specialize_online(program: Program,
                      inputs: Sequence[FacetVector | Value],
                      suite: FacetSuite | None = None,
                      config: PEConfig | None = None) \
        -> SpecializationResult:
    """One-shot online parameterized partial evaluation."""
    return OnlineSpecializer(program, suite, config).specialize(inputs)
