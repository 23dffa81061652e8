"""Online parameterized partial evaluation — Figure 3 of the paper.

The valuation function ``PE`` threads three things through the program:
the residual expression being built, the product-of-facets value
describing it, and the specialization cache ``Sf`` (state of the run,
:class:`repro.online.walk.Ctx`; the semantics' single-threading is
Python's evaluation order).  Per expression form:

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
sub-computations it needs; :meth:`~repro.online.walk.Walk.run` drives
them with :func:`repro.engine.trampoline.run_trampoline` from an
explicit heap-allocated stack, so the Python stack depth stays constant
no matter how deep specialization goes.  The
evaluation order is exactly that of the direct-recursive code, so
residuals are byte-identical.

**Resource governance.**  Every step and residual node is charged to
the run's meter, its :class:`~repro.online.walk.Ctx`; when a soft
budget (steps, wall clock, residual nodes, unfold depth) is exhausted
the engine does not raise — it *generalizes at the offending point*:
the call's facet vector is widened to Dynamic (top), a residual call
is emitted instead of unfolding further, and a DegradeEvent is
recorded.  Specialization then terminates with a correct but
less-specialized residual.  Only the hard ``fuel`` backstop (and
``strict_budgets=True``) still raises, as
:class:`~repro.engine.errors.BudgetExhausted`.

The paper notes (end of Section 4.4) that Figure 3 does not propagate
predicate properties into conditional branches (Redfun-style
constraints).  ``PEConfig(propagate_constraints=True)`` adds that
extension: a residual test refines the facet values of the variables
it mentions in each branch (:mod:`repro.online.constraints`).

Everything but how it walks an expression is the walk every engine
shares (:mod:`repro.online.walk`): the run state and step meter, the
gensym, the conditional's join, the residual ``let``, the call
(:func:`~repro.online.walk.walk_call`, which enters a body through
:meth:`OnlineSpecializer.enter`), and the entry and exit.  This engine
keeps its facet-product primitives, its conditional reduction and
constraint refinement, its lambda forms and its own ``APP`` argument
test (a lambda argument is informative).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.lang.ast import App, Call, Const, Expr, If, Lam, Let, Prim, Var
from repro.lang.errors import PEError
from repro.lang.program import Program
from repro.lang.values import Value
from repro.facets.vector import FacetSuite, FacetVector
from repro.online.config import UNFOLD, PEConfig, decide_beta, decide_call
from repro.online.walk import (
    Ctx, FunctionProfile, Occurrences, Pair, SpecializationResult, Walk,
    build_if, let_exit, walk_call)


class OnlineSpecializer(Walk):
    """``PE_Prog`` of Figure 3 for one program and facet suite (and,
    over ``FacetSuite()``, ``SPE_Prog`` of Figure 2)."""

    stage = "online specialization"

    def __init__(self, program: Program, suite: FacetSuite | None = None,
                 config: PEConfig | None = None) -> None:
        program.validate()
        self.program = program
        suite = suite if suite is not None else FacetSuite()
        # Every function needs every facet: restriction is a no-op.
        needed = [facet.name for facet in suite.facets]
        profiles = {
            fundef.name: FunctionProfile(
                suite, fundef.name, fundef.params, needed,
                Occurrences(fundef.body), fundef.body)
            for fundef in program.defs}
        super().__init__(suite, config if config is not None
                         else PEConfig(), profiles, program.main.name)
        self.ctx: Ctx | None = None

    def enter(self, pf: FunctionProfile, ctx: Ctx,
              bound: Sequence[Pair]):
        self.ctx = ctx
        return self._pe(pf.body, dict(zip(pf.params, bound)), pf)

    # -- the valuation function PE ----------------------------------------
    def _leaf(self, expr: Expr, env: Mapping[str, Pair]) -> Pair | None:
        """Evaluate a leaf node without a trampoline round trip (its
        tick included); ``None`` for non-leaves."""
        if isinstance(expr, Const):
            self.ctx.tick()
            return expr, self.suite.const_vector(expr.value)
        if isinstance(expr, Var):
            self.ctx.tick()
            pair = env.get(expr.name)
            if pair is None:
                # First-class reference to a top-level function.
                return expr, self.suite.unknown(None)
            return pair
        return None

    def _pe(self, expr: Expr, env: Mapping[str, Pair],
            pf: FunctionProfile):
        pair = self._leaf(expr, env)
        if pair is not None:
            return pair
        self.ctx.tick()
        if isinstance(expr, Prim):
            return (yield from self._pe_prim(expr, env, pf))
        if isinstance(expr, If):
            return (yield from self._pe_if(expr, env, pf))
        if isinstance(expr, Let):
            return (yield from self._pe_let(expr, env, pf))
        if isinstance(expr, Call):
            return (yield from self._pe_call(expr, env, pf))
        if isinstance(expr, Lam):
            return (yield from self._pe_lambda(expr, env, pf))
        if isinstance(expr, App):
            return (yield from self._pe_app(expr, env, pf))
        raise PEError(f"unknown expression node {expr!r}")

    def _pe_prim(self, expr: Prim, env: Mapping[str, Pair],
                 pf: FunctionProfile):
        residual_args = []
        vectors = []
        for arg in expr.args:
            pair = self._leaf(arg, env)
            arg_expr, arg_vector = pair if pair is not None \
                else (yield self._pe(arg, env, pf))
            residual_args.append(arg_expr)
            vectors.append(arg_vector)
        ctx = self.ctx
        outcome = self.suite.apply_prim(expr.op, vectors)
        ctx.stats.facet_evaluations += outcome.facet_evaluations
        ctx.stats.decisions += 1
        if outcome.folded:
            ctx.stats.record_fold(outcome.producer or "pe")
            constant = outcome.vector.pe.constant()
            return Const(constant), outcome.vector
        ctx.charge_node()
        return Prim(expr.op, tuple(residual_args)), outcome.vector

    def _pe_if(self, expr: If, env: Mapping[str, Pair],
               pf: FunctionProfile):
        pair = self._leaf(expr.test, env)
        test_expr, _ = pair if pair is not None \
            else (yield self._pe(expr.test, env, pf))
        ctx = self.ctx
        ctx.stats.decisions += 1
        if isinstance(test_expr, Const) \
                and isinstance(test_expr.value, bool):
            ctx.stats.if_reductions += 1
            branch = expr.then if test_expr.value else expr.else_
            pair = self._leaf(branch, env)
            if pair is not None:
                return pair
            return (yield self._pe(branch, env, pf))
        then_env = else_env = env
        if self.config.propagate_constraints:
            then_env = self._constrained(env, test_expr, assume=True)
            else_env = self._constrained(env, test_expr, assume=False)
        pair = self._leaf(expr.then, then_env)
        then_pair = pair if pair is not None \
            else (yield self._pe(expr.then, then_env, pf))
        pair = self._leaf(expr.else_, else_env)
        else_pair = pair if pair is not None \
            else (yield self._pe(expr.else_, else_env, pf))
        return build_if(pf, ctx, test_expr, then_pair, else_pair)

    def _constrained(self, env: Mapping[str, Pair], test: Expr,
                     assume: bool) -> Mapping[str, Pair]:
        """The Section 4.4 extension: refine the facet values of
        variables the residual test talks about, under the branch's
        truth assumption (see :mod:`repro.online.constraints`)."""
        from repro.online.constraints import refine_branch_bindings
        lookup: dict[str, FacetVector] = {}
        holders: dict[str, list[str]] = {}
        for name, (expr, vector) in env.items():
            if isinstance(expr, Var):
                lookup.setdefault(expr.name, vector)
                holders.setdefault(expr.name, []).append(name)
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
                updated[name] = expr, vector
        self.ctx.stats.constraint_refinements += len(refined)
        return updated

    def _pe_let(self, expr: Let, env: Mapping[str, Pair],
                pf: FunctionProfile):
        pair = self._leaf(expr.bound, env)
        bound_expr, bound_vector = pair if pair is not None \
            else (yield self._pe(expr.bound, env, pf))
        inner = dict(env)
        if isinstance(bound_expr, (Const, Var)):
            inner[expr.name] = bound_expr, bound_vector
            pair = self._leaf(expr.body, inner)
            if pair is not None:
                return pair
            return (yield self._pe(expr.body, inner, pf))
        fresh = self.ctx.fresh(expr.name)
        inner[expr.name] = Var(fresh), bound_vector
        pair = self._leaf(expr.body, inner)
        body_pair = pair if pair is not None \
            else (yield self._pe(expr.body, inner, pf))
        return let_exit(self.ctx, fresh, bound_expr, body_pair)

    # -- APP: unfold or specialize -----------------------------------------
    def _pe_call(self, expr: Call, env: Mapping[str, Pair],
                 pf: FunctionProfile):
        callee = self.profiles.get(expr.fn)
        if callee is None:
            raise PEError(f"call to unknown function {expr.fn!r}")
        pairs = []
        for arg in expr.args:
            pair = self._leaf(arg, env)
            pairs.append(pair if pair is not None
                         else (yield self._pe(arg, env, pf)))
        self.ctx.stats.decisions += 1
        return (yield from self._apply(callee, pairs))

    def _apply(self, callee: FunctionProfile, pairs: Sequence[Pair]):
        """``APP`` for a call to ``callee``; returns the call's walk."""
        ctx = self.ctx
        vectors = [pair[1] for pair in pairs]
        # A lambda-valued argument is static information the facet
        # vectors cannot see: unfold so the closure reaches its
        # application sites and beta-reduces.
        informative = any(map(self.suite.informative, vectors)) \
            or any(isinstance(pair[0], Lam) for pair in pairs)
        decision = decide_call(ctx, callee.name, informative)
        return walk_call(self.enter, callee, ctx, pairs, vectors,
                         decision)

    # -- higher-order forms -------------------------------------------------
    def _pe_lambda(self, expr: Lam, env: Mapping[str, Pair],
                   pf: FunctionProfile):
        """Specialize under the lambda with dynamic parameters; free
        variables keep their bindings (they may be static)."""
        ctx = self.ctx
        inner = dict(env)
        renamed = []
        for param in expr.params:
            fresh = ctx.fresh(param)
            renamed.append(fresh)
            inner[param] = Var(fresh), self.suite.unknown(None)
        pair = self._leaf(expr.body, inner)
        body_expr, _ = pair if pair is not None \
            else (yield self._pe(expr.body, inner, pf))
        ctx.charge_node()
        return Lam(tuple(renamed), body_expr), self.suite.unknown(None)

    def _pe_app(self, expr: App, env: Mapping[str, Pair],
                pf: FunctionProfile):
        pair = self._leaf(expr.fn, env)
        fn_expr, _ = pair if pair is not None \
            else (yield self._pe(expr.fn, env, pf))
        pairs = []
        for arg in expr.args:
            pair = self._leaf(arg, env)
            pairs.append(pair if pair is not None
                         else (yield self._pe(arg, env, pf)))
        ctx = self.ctx
        ctx.stats.decisions += 1
        if isinstance(fn_expr, Lam) and decide_beta(ctx):
            # The lambda's body is a residual expression: a transient
            # profile carries it through the unfold.
            lam = FunctionProfile(self.suite, "<lambda>", fn_expr.params,
                                  pf.needed, Occurrences(fn_expr.body),
                                  fn_expr.body)
            return (yield from walk_call(
                self.enter, lam, ctx, pairs, [pair[1] for pair in pairs],
                UNFOLD))
        if isinstance(fn_expr, Var) and fn_expr.name in self.profiles \
                and fn_expr.name not in env:
            return (yield from self._apply(self.profiles[fn_expr.name],
                                           pairs))
        ctx.charge_node()
        return (App(fn_expr, tuple(pair[0] for pair in pairs)),
                self.suite.unknown(None))


def specialize_online(program: Program,
                      inputs: Sequence[FacetVector | Value],
                      suite: FacetSuite | None = None,
                      config: PEConfig | None = None) \
        -> SpecializationResult:
    """One-shot online parameterized partial evaluation."""
    return OnlineSpecializer(program, suite, config).specialize(inputs)
