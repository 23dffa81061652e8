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

This module is the reference driver of that walk: it dispatches on the
AST, looks each annotation up, keeps the environments and runs on the
generator trampoline of :mod:`repro.engine.trampoline` (constant Python
stack depth).  Every operation it performs lives elsewhere, written
once: the primitive actions, the facet restriction and the call
decision in :mod:`repro.offline.walk`, which an emitted generating
extension (:mod:`repro.genext`) calls too; the conditional's join, the
residual ``let``, the rest of the call, the step meter and the entry
and exit in :mod:`repro.online.walk`, which every engine runs.  The
walk still threads facet vectors — it must, to have the actual
constants (the vector size 3) available where the analysis said a
facet triggers — but per function it tracks only the needed facets,
and its per-primitive work is O(needed) instead of O(all facets): the
efficiency claim of the introduction, measured by
``benchmarks/bench_decisions.py``.

Inputs must match the analyzed pattern (be at or below it in the
abstract order); mismatched inputs are rejected at entry.  Inside a
matching run, a Static annotation can still meet a residual value in
one case only — a static subexpression *errored* (the paper's "modulo
termination" bottom caveat) — and then the specializer residualizes, so
the error surfaces at run time instead of specialization time.
Budget-forced widening collapses a call onto the all-dynamic variant
(the lenient rung-2 path) — safe for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.lang.ast import Call, Const, Expr, If, Let, Prim, Var
from repro.lang.errors import PEError
from repro.lang.program import Program
from repro.lang.values import Value
from repro.facets.vector import FacetSuite, FacetVector
from repro.offline.analysis import (
    AnalysisResult, FOLD, IfAnnotation, PrimAnnotation, TRIGGER)
from repro.offline.walk import (
    OfflineWalk, call_decision, fold, residual_prim, trigger, unbound)
from repro.online.config import PEConfig
from repro.online.walk import (
    Ctx, FunctionProfile, Occurrences, Pair, SpecializationResult,
    build_if, let_exit, walk_call)


@dataclass(frozen=True)
class OfflineResult(SpecializationResult):
    """A specialization result and the analysis the run followed."""

    analysis: AnalysisResult


class OfflineSpecializer(OfflineWalk):
    """The specialization phase of offline parameterized PE."""

    def __init__(self, analysis: AnalysisResult,
                 suite: FacetSuite,
                 config: PEConfig | None = None) -> None:
        self.analysis = analysis
        profiles = {
            fundef.name: FunctionProfile(
                suite, fundef.name, fundef.params,
                analysis.needed_facets.get(fundef.name, ()),
                Occurrences(fundef.body), fundef.body)
            for fundef in analysis.program.defs}
        super().__init__(suite, analysis.suite, analysis.inputs,
                         config if config is not None else PEConfig(),
                         profiles, analysis.program.main.name)
        self.ctx: Ctx | None = None

    def specialize(self, inputs: Sequence[FacetVector | Value]) \
            -> OfflineResult:
        """Specialize on inputs matching the analyzed pattern."""
        return OfflineResult(**vars(self.run(inputs)),
                             analysis=self.analysis)

    def enter(self, pf: FunctionProfile, ctx: Ctx,
              bound: Sequence[Pair]):
        self.ctx = ctx
        return self._pe(pf.body, dict(zip(pf.params, bound)), pf)

    # -- the specialization walk ---------------------------------------------
    def _leaf(self, expr: Expr, env: Mapping[str, Pair],
              pf: FunctionProfile) -> Pair | None:
        """Evaluate a leaf node without a trampoline round trip (its
        tick included); ``None`` for non-leaves."""
        if isinstance(expr, Var):
            self.ctx.tick()
            pair = env.get(expr.name)
            return pair if pair is not None else unbound(expr.name)
        if isinstance(expr, Const):
            self.ctx.tick()
            return expr, pf.restrict(self.suite.const_vector(expr.value))
        return None

    def _pe(self, expr: Expr, env: Mapping[str, Pair],
            pf: FunctionProfile):
        pair = self._leaf(expr, env, pf)
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
        raise PEError(
            f"higher-order node {type(expr).__name__} reached the "
            f"first-order offline specializer")

    def _pe_prim(self, expr: Prim, env: Mapping[str, Pair],
                 pf: FunctionProfile):
        pairs = []
        for arg in expr.args:
            pair = self._leaf(arg, env, pf)
            pairs.append(pair if pair is not None
                         else (yield self._pe(arg, env, pf)))
        annotation = self.analysis.annotation_of(expr)
        if isinstance(annotation, PrimAnnotation):
            if annotation.action == FOLD:
                return fold(pf, self.ctx, expr.op, pairs)
            if annotation.action == TRIGGER:
                return trigger(pf, self.ctx, expr.op, pairs,
                               self.facet(annotation.producer))
        return residual_prim(pf, self.ctx, expr.op, pairs)

    def _pe_if(self, expr: If, env: Mapping[str, Pair],
               pf: FunctionProfile):
        annotation = self.analysis.annotation_of(expr)
        pair = self._leaf(expr.test, env, pf)
        test_expr, _ = pair if pair is not None \
            else (yield self._pe(expr.test, env, pf))
        if isinstance(annotation, IfAnnotation) \
                and annotation.test_bt.is_static:
            if isinstance(test_expr, Const) \
                    and isinstance(test_expr.value, bool):
                self.ctx.stats.if_reductions += 1
                branch = expr.then if test_expr.value else expr.else_
                pair = self._leaf(branch, env, pf)
                if pair is not None:
                    return pair
                return (yield self._pe(branch, env, pf))
            # Bottom caveat again: the static test errored upstream and
            # was residualized; keep the conditional residual.
        pair = self._leaf(expr.then, env, pf)
        then_pair = pair if pair is not None \
            else (yield self._pe(expr.then, env, pf))
        pair = self._leaf(expr.else_, env, pf)
        else_pair = pair if pair is not None \
            else (yield self._pe(expr.else_, env, pf))
        return build_if(pf, self.ctx, test_expr, then_pair, else_pair)

    def _pe_let(self, expr: Let, env: Mapping[str, Pair],
                pf: FunctionProfile):
        pair = self._leaf(expr.bound, env, pf)
        bound_expr, bound_vector = pair if pair is not None \
            else (yield self._pe(expr.bound, env, pf))
        inner = dict(env)
        if isinstance(bound_expr, (Const, Var)):
            inner[expr.name] = bound_expr, bound_vector
            pair = self._leaf(expr.body, inner, pf)
            if pair is not None:
                return pair
            return (yield self._pe(expr.body, inner, pf))
        fresh = self.ctx.fresh(expr.name)
        inner[expr.name] = Var(fresh), bound_vector
        pair = self._leaf(expr.body, inner, pf)
        body_pair = pair if pair is not None \
            else (yield self._pe(expr.body, inner, pf))
        return let_exit(self.ctx, fresh, bound_expr, body_pair)

    def _pe_call(self, expr: Call, env: Mapping[str, Pair],
                 pf: FunctionProfile):
        callee = self.profiles.get(expr.fn)
        if callee is None:
            raise PEError(f"call to unknown function {expr.fn!r}")
        pairs = []
        for arg in expr.args:
            pair = self._leaf(arg, env, pf)
            pairs.append(pair if pair is not None
                         else (yield self._pe(arg, env, pf)))
        decision, vectors = call_decision(callee, self.ctx, pairs)
        return (yield from walk_call(self.enter, callee, self.ctx, pairs,
                                     vectors, decision))


def specialize_offline(program: Program,
                       inputs: Sequence[FacetVector | Value],
                       suite: FacetSuite,
                       analysis: AnalysisResult | None = None,
                       config: PEConfig | None = None) -> OfflineResult:
    """Analyze (if no analysis is supplied) and specialize.

    The analysis runs under the inputs' division
    (:func:`repro.offline.analysis.analysis_input`): a literal enters
    it as Static of its sort, so one analysis serves every literal of
    that sort.  When reusing one analysis across many input instances
    — the whole point of the offline strategy — run
    :func:`repro.offline.analysis.analyze` once and pass its result.
    """
    if analysis is None:
        from repro.facets.abstract.vector import AbstractSuite
        from repro.offline.analysis import analysis_input, analyze
        abstract_suite = AbstractSuite(suite)
        pattern = [analysis_input(abstract_suite, item)
                   for item in inputs]
        analysis = analyze(program, pattern, abstract_suite)
    return OfflineSpecializer(analysis, suite, config).specialize(inputs)
