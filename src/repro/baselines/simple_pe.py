"""Conventional (simple) partial evaluation — Figure 2 of the paper.

This is the baseline ``SPE``: partial evaluation with *only* concrete
values.  An expression reduces exactly when it is built from constants;
``SK_P`` folds a primitive only when every argument partially evaluated
to a constant.  There are no facets, no abstract values — specializing
the inner-product program with this evaluator and a dynamic vector gets
nothing, which is the paper's motivation.

The implementation deliberately parallels
:class:`repro.online.specializer.OnlineSpecializer` (same ``APP``
strategy, same cache discipline, same counters) so the
``bench_decisions`` and ``bench_online_vs_offline`` comparisons measure
the *facet machinery*, not incidental engineering differences.
Semantically, ``SPE`` coincides with online PPE run with an empty facet
suite — a property the test suite checks program-by-program.

Like the online engine, ``SPE`` runs its recursion on a generator
trampoline (constant Python stack depth, no ``sys.setrecursionlimit``)
and meters its work against the :class:`~repro.engine.budget.Budget`
derived from the config, degrading gracefully — widen the call, emit a
residual call, record a :class:`~repro.engine.budget.DegradeEvent` —
when a soft budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.engine.budget import STEP_STRIDE, DegradeEvent
from repro.engine.errors import BudgetExhausted, engine_guard
from repro.engine.trampoline import run_trampoline
from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var,
    count_occurrences)
from repro.lang.errors import EvalError, PEError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lang.program import Program
from repro.lang.values import is_value
from repro.online.config import PEConfig, PEStats, UnfoldStrategy
from repro.transform.simplify import definitely_total, finish_residual

#: Marker for a dynamic input position.
DYN = object()


@dataclass(frozen=True)
class SimplePEResult:
    """Residual program and counters from one ``SPE`` run."""

    program: Program
    raw_program: Program
    stats: PEStats
    goal_params: tuple[str, ...]


class SimplePartialEvaluator:
    """``SPE_Prog`` of Figure 2."""

    def __init__(self, program: Program,
                 config: PEConfig | None = None) -> None:
        program.validate()
        self.program = program
        self.functions = program.functions()
        self.config = config if config is not None else PEConfig()
        self.stats = PEStats()
        self.budget = self.config.make_budget()
        self._cache: dict[Hashable, tuple[str, tuple[int, ...],
                                          tuple[str, ...]]] = {}
        self._residuals: list[FunDef | None] = []
        self._taken = set(self.functions)
        self._counters: dict[str, int] = {}
        self._gensym = 0

    def specialize(self, inputs: Sequence[object]) -> SimplePEResult:
        """Specialize on a known/unknown division: each input is a
        concrete value or the :data:`DYN` marker."""
        main = self.program.main
        if len(inputs) != main.arity:
            raise PEError(
                f"{main.name}: expected {main.arity} inputs, "
                f"got {len(inputs)}")
        with engine_guard("simple partial evaluation"):
            env: dict[str, Expr] = {}
            goal_params = []
            for param, value in zip(main.params, inputs):
                if value is DYN:
                    env[param] = Var(param)
                    goal_params.append(param)
                elif is_value(value):
                    env[param] = Const(value)
                else:
                    raise PEError(
                        f"input for {param!r} must be a value or "
                        f"DYN, got {value!r}")
            self.budget.start()
            try:
                body = run_trampoline(self._pe(main.body, env, depth=0))
            finally:
                self.budget.charge_steps(self.stats.steps)
                self.stats.budget_used = self.budget.used()
            goal = FunDef(main.name, tuple(goal_params), body)
            raw = Program((goal, *[d for d in self._residuals
                                   if d is not None]))
            cleaned = finish_residual(raw, self.config, self.stats)
            return SimplePEResult(cleaned, raw, self.stats,
                                  tuple(goal_params))

    # -- SPE ----------------------------------------------------------------
    def _pe(self, expr: Expr, env: Mapping[str, Expr],
            depth: int):
        self._tick()
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, Var):
            return env.get(expr.name, expr)
        if isinstance(expr, Prim):
            args = []
            for a in expr.args:
                args.append((yield self._pe(a, env, depth)))
            return self._sk_p(expr.op, args)
        if isinstance(expr, If):
            test = yield self._pe(expr.test, env, depth)
            self.stats.decisions += 1
            if isinstance(test, Const) and isinstance(test.value, bool):
                self.stats.if_reductions += 1
                branch = expr.then if test.value else expr.else_
                return (yield self._pe(branch, env, depth))
            then = yield self._pe(expr.then, env, depth)
            else_ = yield self._pe(expr.else_, env, depth)
            self.budget.charge_nodes()
            return If(test, then, else_)
        if isinstance(expr, Let):
            bound = yield self._pe(expr.bound, env, depth)
            if isinstance(bound, (Const, Var)):
                inner = dict(env)
                inner[expr.name] = bound
                return (yield self._pe(expr.body, inner, depth))
            fresh = self._fresh(expr.name)
            inner = dict(env)
            inner[expr.name] = Var(fresh)
            body = yield self._pe(expr.body, inner, depth)
            if count_occurrences(body, fresh, limit=1) == 0 \
                    and definitely_total(bound):
                return body
            self.budget.charge_nodes()
            return Let(fresh, bound, body)
        if isinstance(expr, Call):
            args = []
            for a in expr.args:
                args.append((yield self._pe(a, env, depth)))
            return (yield self._app(expr.fn, args, depth))
        if isinstance(expr, Lam):
            inner = dict(env)
            renamed = []
            for param in expr.params:
                fresh = self._fresh(param)
                renamed.append(fresh)
                inner[param] = Var(fresh)
            body = yield self._pe(expr.body, inner, depth)
            self.budget.charge_nodes()
            return Lam(tuple(renamed), body)
        if isinstance(expr, App):
            fn = yield self._pe(expr.fn, env, depth)
            args = []
            for a in expr.args:
                args.append((yield self._pe(a, env, depth)))
            self.stats.decisions += 1
            if isinstance(fn, Lam) and depth < self.config.unfold_fuel:
                reason = self.budget.exhausted
                if reason is None and self.budget.blocks_unfold(depth):
                    reason = "unfold_depth"
                if reason is not None:
                    self._degrade("<lambda>", reason, depth,
                                  "residual-call")
                else:
                    self.stats.unfoldings += 1
                    fundef = FunDef("<lambda>", fn.params, fn.body)
                    return (yield self._unfold(fundef, args, depth + 1))
            if isinstance(fn, Var) and fn.name in self.functions \
                    and fn.name not in env:
                return (yield self._app(fn.name, args, depth))
            self.budget.charge_nodes()
            return App(fn, tuple(args))
        raise PEError(f"unknown expression node {expr!r}")

    def _sk_p(self, op: str, args: Sequence[Expr]) -> Expr:
        """``SK_P``: fold when every argument is a constant."""
        self.stats.facet_evaluations += 1
        self.stats.decisions += 1
        if all(isinstance(a, Const) for a in args):
            values = [a.value for a in args]  # type: ignore[union-attr]
            if fold_would_blow_up(op, values):
                self.budget.charge_nodes()
                return Prim(op, tuple(args))
            try:
                value = apply_primitive(op, values)
            except EvalError:
                self.budget.charge_nodes()
                return Prim(op, tuple(args))
            self.stats.record_fold("pe")
            return Const(value)
        self.budget.charge_nodes()
        return Prim(op, tuple(args))

    # -- APP ------------------------------------------------------------------
    def _app(self, fn: str, args: Sequence[Expr], depth: int):
        fundef = self.functions.get(fn)
        if fundef is None:
            raise PEError(f"call to unknown function {fn!r}")
        self.stats.decisions += 1
        reason = self.budget.exhausted
        if reason is not None:
            self._degrade(fundef.name, reason, depth, "widened-call")
            return (yield self._specialize_call(fundef, args,
                                                widen=True))
        if self._should_unfold(args, depth):
            if self.budget.blocks_unfold(depth):
                self._degrade(fundef.name, "unfold_depth", depth,
                              "residual-call")
            else:
                self.stats.unfoldings += 1
                return (yield self._unfold(fundef, args, depth + 1))
        return (yield self._specialize_call(fundef, args))

    def _should_unfold(self, args: Sequence[Expr], depth: int) -> bool:
        strategy = self.config.unfold_strategy
        if strategy is UnfoldStrategy.NEVER:
            return False
        if depth >= self.config.unfold_fuel:
            return False
        if strategy is UnfoldStrategy.ALWAYS:
            return True
        return any(isinstance(a, Const) for a in args)

    def _unfold(self, fundef: FunDef, args: Sequence[Expr],
                depth: int):
        env: dict[str, Expr] = {}
        lets: list[tuple[str, Expr]] = []
        for param, arg in zip(fundef.params, args):
            if isinstance(arg, (Const, Var)) \
                    or count_occurrences(fundef.body, param) <= 1:
                env[param] = arg
            else:
                fresh = self._fresh(param)
                lets.append((fresh, arg))
                env[param] = Var(fresh)
        body = yield self._pe(fundef.body, env, depth)
        for fresh, bound in reversed(lets):
            if count_occurrences(body, fresh, limit=1) == 0 \
                    and definitely_total(bound):
                continue
            self.budget.charge_nodes()
            body = Let(fresh, bound, body)
        return body

    def _specialize_call(self, fundef: FunDef,
                         args: Sequence[Expr], widen: bool = False):
        variants = sum(1 for key in self._cache if key[0] == fundef.name)
        # A budget-forced widening collapses onto the all-dynamic
        # variant, exactly like running out of max_variants.
        generalize = widen or variants >= self.config.max_variants
        pattern: list[Hashable] = [fundef.name]
        for arg in args:
            if isinstance(arg, Const) and not generalize:
                pattern.append(("c", type(arg.value).__name__, arg.value))
            else:
                pattern.append("?")
        key = tuple(pattern)
        if generalize:
            self.stats.generalizations += 1
        positions = tuple(i for i, part in enumerate(pattern[1:])
                          if part == "?")
        entry = self._cache.get(key)
        if entry is None:
            name = self._fresh_fn(fundef.name)
            params = tuple(fundef.params[i] for i in positions)
            slot = len(self._residuals)
            self._residuals.append(None)
            self._cache[key] = (name, positions, params)
            self.stats.specializations += 1
            env = {}
            for i, param in enumerate(fundef.params):
                env[param] = Var(param) if i in positions \
                    else args[i]
            body = yield self._pe(fundef.body, env, depth=0)
            self._residuals[slot] = FunDef(name, params, body)
            entry = self._cache[key]
        else:
            self.stats.cache_hits += 1
        name, positions, _params = entry
        self.budget.charge_nodes()
        return Call(name, tuple(args[i] for i in positions))

    # -- plumbing ----------------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._gensym += 1
        return f"{base}!{self._gensym}"

    def _fresh_fn(self, base: str) -> str:
        count = self._counters.get(base, 0) + 1
        candidate = f"{base}!{count}"
        while candidate in self._taken:
            count += 1
            candidate = f"{base}!{count}"
        self._counters[base] = count
        self._taken.add(candidate)
        return candidate

    def _degrade(self, site: str, reason: str, depth: int,
                 action: str) -> None:
        self.budget.degrade(self.stats, DegradeEvent(
            site=site, reason=reason, action=action, depth=depth,
            step=self.stats.steps), self.config.strict_budgets)

    def _tick(self) -> None:
        steps = self.stats.steps = self.stats.steps + 1
        if steps > self.config.fuel:
            raise BudgetExhausted(
                f"partial evaluation exceeded {self.config.fuel} steps",
                dimension="fuel", limit=self.config.fuel,
                used=self.stats.steps)
        if self.budget.limited and steps & (STEP_STRIDE - 1) == 0:
            self.budget.charge_steps(steps)


def specialize_simple(program: Program, inputs: Sequence[object],
                      config: PEConfig | None = None) -> SimplePEResult:
    """One-shot conventional partial evaluation (Figure 2)."""
    return SimplePartialEvaluator(program, config).specialize(inputs)
