"""Conventional (simple) partial evaluation — Figure 2 of the paper.

This is the baseline ``SPE``: partial evaluation with *only* concrete
values.  An expression reduces exactly when it is built from constants;
``SK_P`` folds a primitive only when every argument partially evaluated
to a constant.  There are no facets, no abstract values — specializing
the inner-product program with this evaluator and a dynamic vector gets
nothing, which is the paper's motivation.

The implementation deliberately parallels
:class:`repro.online.specializer.OnlineSpecializer`: it takes its call
decisions from the same ``APP`` (:func:`repro.online.config.decide_call`
and :func:`~repro.online.config.decide_beta`), names its residual
functions through the same :class:`~repro.online.cache.SpecCache` and
keeps the same counters, so the ``bench_decisions`` and
``bench_online_vs_offline`` comparisons measure the *facet machinery*,
not incidental engineering differences.  A call is informative when
any argument is a constant, and its cache key has a single
generalization rung: past ``max_variants``, every argument is
dynamic.
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
from time import perf_counter
from typing import Hashable, Mapping, Sequence

from repro.engine.budget import STEP_STRIDE
from repro.engine.errors import BudgetExhausted, engine_guard
from repro.engine.trampoline import run_trampoline
from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var,
    count_occurrences)
from repro.lang.errors import EvalError, PEError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lang.program import Program
from repro.lang.values import is_value
from repro.online.cache import SpecCache
from repro.online.config import (
    UNFOLD, WIDEN, PEConfig, PEStats, decide_beta, decide_call)
from repro.transform.simplify import close_let, finish_residual

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
        self.cache = SpecCache(reserved_names=list(self.functions))
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
            started = perf_counter()
            try:
                body = run_trampoline(self._pe(main.body, env, depth=0))
            finally:
                self.stats.record_phase("specialize",
                                        perf_counter() - started)
                self.budget.charge_steps(self.stats.steps)
                self.stats.budget_used = self.budget.used()
            goal = FunDef(main.name, tuple(goal_params), body)
            raw = Program((goal, *self.cache.residual_defs()))
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
            return close_let(self.budget, fresh, bound, body)
        if isinstance(expr, Call):
            args = []
            for a in expr.args:
                args.append((yield self._pe(a, env, depth)))
            self.stats.decisions += 1
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
            if isinstance(fn, Lam) \
                    and decide_beta(self, depth, self.stats.steps):
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
        decision = decide_call(self, fn, depth, self.stats.steps,
                               any(isinstance(a, Const) for a in args))
        if decision is UNFOLD:
            return (yield self._unfold(fundef, args, depth + 1))
        return (yield self._specialize_call(fundef, args,
                                            widen=decision is WIDEN))

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
            body = close_let(self.budget, fresh, bound, body)
        return body

    def _specialize_call(self, fundef: FunDef,
                         args: Sequence[Expr], widen: bool = False):
        # A budget-forced widening collapses onto the all-dynamic
        # variant, exactly like running out of max_variants.
        generalize = widen or self.cache.variants_of(fundef.name) \
            >= self.config.max_variants
        pattern: list[Hashable] = [fundef.name]
        for arg in args:
            if isinstance(arg, Const) and not generalize:
                pattern.append(("c", type(arg.value).__name__, arg.value))
            else:
                pattern.append("?")
        key = tuple(pattern)
        if generalize:
            self.stats.generalizations += 1
        entry = self.cache.lookup(key)
        if entry is None:
            positions = tuple(i for i, part in enumerate(pattern[1:])
                              if part == "?")
            entry = self.cache.register(
                key, fundef.name, positions,
                tuple(fundef.params[i] for i in positions))
            self.stats.specializations += 1
            env = {param: Var(param) if i in positions else args[i]
                   for i, param in enumerate(fundef.params)}
            body = yield self._pe(fundef.body, env, depth=0)
            self.cache.finish(entry,
                              FunDef(entry.name, entry.params, body))
        else:
            self.stats.cache_hits += 1
        self.budget.charge_nodes()
        return Call(entry.name,
                    tuple(args[i] for i in entry.dynamic_positions))

    # -- plumbing ----------------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._gensym += 1
        return f"{base}!{self._gensym}"

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
