"""Facet analysis — Figure 4 of the paper.

A generalized binding-time analysis: given abstract facet values for the
goal function's parameters (e.g. ``<Dynamic, s>`` — dynamic vectors of
static size), compute for every function its *facet signature* in
``S~D^{n+1}`` — an abstract vector per parameter plus one for the result
— and, for every expression, the abstract vector it evaluates to.

The implementation follows the figure's two cooperating valuation
functions:

* ``E~`` (here :meth:`FacetAnalyzer._eval`) computes the abstract value
  of an expression; calls go through the abstract function environment
  ``zeta``, realized as a worklist fixpoint over ``(function, abstract
  arguments)`` cells (:class:`~repro.lattice.fixpoint.WorklistSolver`).
  Per the figure, a call with any Dynamic-binding-time argument is
  approximated by ``(Dynamic, T, ..., T)`` without consulting ``zeta``.
* ``A~`` (signature collection) records each call site's argument
  vectors into the signature environment ``pi``; the global fixpoint
  ``h`` re-analyzes every function under its joined signature until
  nothing grows.

Termination: every shipped abstract domain has finite height except
facets derived from infinite-height online domains (the interval
facet); when the suite reports :meth:`needs_widening`, joins in ``pi``
and ``zeta`` widen (footnote 1), and the number of distinct ``zeta``
cells per function is capped, generalizing past the cap.

After convergence a final recording pass fills two tables the offline
specializer and the Figure 9 report consume: per-expression abstract
vectors, and per-node *annotations* saying what the specializer may do
at that node (fold, trigger facet ``j``'s open operator, reduce this
conditional, ...).

Which abstract vector a specialization input enters the analysis as —
the *division* — is decided once, by :func:`analysis_input`, for every
caller that analyzes for an offline run: the service's offline engine,
:func:`repro.offline.specializer.specialize_offline`, ``ppe analyze`` /
``ppe offline`` and an emitted generating extension.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var)
from repro.lang.errors import PEError
from repro.lang.program import Program, is_first_order
from repro.lang.values import Value, is_value, sort_of
from repro.lattice.bt import BT
from repro.lattice.core import Lattice
from repro.lattice.fixpoint import FixpointStats, WorklistSolver
from repro.facets.abstract.vector import (
    AbstractOutcome, AbstractSuite, AbstractVector)
from repro.facets.vector import FacetSuite, FacetVector

_RECURSION_LIMIT = 100_000


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunables of the analysis fixpoint."""

    #: Cap on distinct ``zeta`` cells per function before argument
    #: generalization (only matters for infinite abstract domains).
    max_cells_per_function: int = 32
    #: Cap on global ``h`` iterations (safety net; finite-height domains
    #: converge long before).
    max_iterations: int = 1_000


@dataclass(frozen=True)
class Signature:
    """One function's facet signature: ``S~D^{n+1}``."""

    args: tuple[AbstractVector, ...]
    result: AbstractVector

    def __str__(self) -> str:
        rendered = " x ".join(str(a) for a in self.args)
        return f"{rendered} -> {self.result}"


# -- annotations consumed by the offline specializer -----------------------

#: Primitive actions.
FOLD = "fold"          # all arguments Static: evaluate concretely
TRIGGER = "trigger"    # facet ``producer`` will yield the constant
RESIDUAL = "residual"  # keep the primitive residual


@dataclass(frozen=True)
class PrimAnnotation:
    action: str
    producer: str | None
    vector: AbstractVector


@dataclass(frozen=True)
class IfAnnotation:
    #: Binding time of the test: Static means the specializer reduces
    #: this conditional.
    test_bt: BT
    vector: AbstractVector


@dataclass(frozen=True)
class CallAnnotation:
    fn: str
    #: Abstract argument vectors at this site (joined over iterations).
    args: tuple[AbstractVector, ...]
    vector: AbstractVector


@dataclass
class AnalysisResult:
    """Everything the facet analysis learned."""

    program: Program
    suite: AbstractSuite
    inputs: tuple[AbstractVector, ...]
    signatures: dict[str, Signature]
    #: ``id(expr) -> AbstractVector`` for every analyzed node.
    expr_values: dict[int, AbstractVector]
    #: ``id(expr) -> PrimAnnotation | IfAnnotation | CallAnnotation``.
    annotations: dict[int, object]
    #: Per function, the facets whose values the specializer must track
    #: (transitively closed over calls) — the paper's observation that
    #: "size facet computation is only required for iprod".
    needed_facets: dict[str, frozenset[str]]
    stats: FixpointStats

    def value_of(self, expr: Expr) -> AbstractVector:
        return self.expr_values[id(expr)]

    def annotation_of(self, expr: Expr) -> object | None:
        return self.annotations.get(id(expr))


class _VectorLattice(Lattice):
    """Adapter exposing an :class:`AbstractSuite`'s vectors as a lattice
    (for the worklist solver); elements may also be tuples of vectors."""

    name = "S~D"

    def __init__(self, suite: AbstractSuite) -> None:
        self.suite = suite

    @property
    def bottom(self):
        return self.suite.bottom(None)

    @property
    def top(self):
        return self.suite.dynamic(None)

    def leq(self, left, right) -> bool:
        return self.suite.leq(left, right)

    def join(self, left, right):
        return self.suite.join(left, right)

    def widen(self, previous, new):
        return self.suite.widen(previous, new)

    def is_enumerable(self) -> bool:
        return False

    def contains(self, element) -> bool:
        return isinstance(element, AbstractVector)


class FacetAnalyzer:
    """Figure 4's ``M~`` for one program and abstract suite."""

    def __init__(self, program: Program,
                 suite: FacetSuite | AbstractSuite | None = None,
                 config: AnalysisConfig | None = None) -> None:
        program.validate()
        if not is_first_order(program):
            raise PEError(
                "Figure 4's facet analysis is first-order; use "
                "repro.offline.higher_order for this program")
        self.program = program
        self.functions = program.functions()
        if suite is None:
            suite = AbstractSuite(FacetSuite())
        elif isinstance(suite, FacetSuite):
            suite = AbstractSuite(suite)
        self.suite = suite
        self.config = config if config is not None else AnalysisConfig()
        self.stats = FixpointStats()
        self._lattice = _VectorLattice(suite)
        self._widen = suite.needs_widening()
        self._cells_per_fn: dict[str, set[Hashable]] = {}
        self._general_args: dict[str, tuple[AbstractVector, ...]] = {}

    # -- entry point ---------------------------------------------------------
    def analyze(self, inputs: Sequence[AbstractVector | Value]) \
            -> AnalysisResult:
        main = self.program.main
        if len(inputs) != main.arity:
            raise PEError(
                f"{main.name}: expected {main.arity} inputs, "
                f"got {len(inputs)}")
        input_vectors = tuple(
            self.suite.const_vector(value) if is_value(value) else value
            for value in inputs)

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
        try:
            return self._analyze(input_vectors)
        finally:
            sys.setrecursionlimit(old_limit)

    def _analyze(self, inputs: tuple[AbstractVector, ...]) \
            -> AnalysisResult:
        solver = WorklistSolver(self._lattice, self._zeta_equation,
                                use_widening=self._widen)

        # The global fixpoint ``h``: argument signatures per function.
        arg_sigs: dict[str, tuple[AbstractVector, ...]] = {
            self.program.main.name: inputs}
        for _ in range(self.config.max_iterations):
            self.stats.iterations += 1
            pending: dict[str, tuple[AbstractVector, ...]] = {}
            for name, args in list(arg_sigs.items()):
                fundef = self.functions[name]
                env = dict(zip(fundef.params, args))
                self._eval(fundef.body, env, solver,
                           record=None, callsites=pending)
            # Settle the abstract function environment ``zeta`` before
            # judging convergence: growing cell values destabilize the
            # signatures just like growing argument patterns do.
            changed = solver.drain() > 0
            for name, args in pending.items():
                old = arg_sigs.get(name)
                if old is None:
                    arg_sigs[name] = args
                    changed = True
                    continue
                merged = tuple(self._merge(o, n)
                               for o, n in zip(old, args))
                if any(not self.suite.leq(m, o)
                       for m, o in zip(merged, old)):
                    arg_sigs[name] = merged
                    changed = True
            if not changed:
                break
        else:
            raise PEError("facet analysis did not converge; "
                          "raise AnalysisConfig.max_iterations")

        # Final recording pass: expression values and annotations.
        solver.drain()
        expr_values: dict[int, AbstractVector] = {}
        annotations: dict[int, object] = {}
        signatures: dict[str, Signature] = {}
        recorder = (expr_values, annotations)
        for name, args in arg_sigs.items():
            fundef = self.functions[name]
            env = dict(zip(fundef.params, args))
            result = self._eval(fundef.body, env, solver,
                                record=recorder, callsites={})
            signatures[name] = Signature(args, result)

        needed = self._compute_needed_facets(signatures, annotations)
        self.stats.evaluations += solver.stats.evaluations
        return AnalysisResult(self.program, self.suite, inputs,
                              signatures, expr_values, annotations,
                              needed, self.stats)

    def _merge(self, old: AbstractVector,
               new: AbstractVector) -> AbstractVector:
        if self._widen:
            return self.suite.widen(old, new)
        return self.suite.join(old, new)

    # -- zeta: the abstract function environment -------------------------------
    def _zeta_equation(self, solver: WorklistSolver,
                       cell: Hashable) -> AbstractVector:
        name, args = cell
        fundef = self.functions[name]
        env = dict(zip(fundef.params, args))
        return self._eval(fundef.body, env, solver,
                          record=None, callsites={})

    def _zeta_ask(self, solver: WorklistSolver, name: str,
                  args: tuple[AbstractVector, ...]) -> AbstractVector:
        cells = self._cells_per_fn.setdefault(name, set())
        key = (name, args)
        if key not in cells and \
                len(cells) >= self.config.max_cells_per_function:
            # Generalize: collapse excess variants into one widened cell.
            general = self._general_args.get(name)
            if general is None:
                general = tuple(self.suite.dynamic(a.sort) for a in args)
            else:
                general = tuple(self._merge(g, a)
                                for g, a in zip(general, args))
            self._general_args[name] = general
            key = (name, general)
        cells.add(key)
        return solver.ask(key)

    # -- E~: abstract evaluation ------------------------------------------------
    def _eval(self, expr: Expr, env: Mapping[str, AbstractVector],
              solver: WorklistSolver,
              record: tuple[dict, dict] | None,
              callsites: dict[str, tuple[AbstractVector, ...]]) \
            -> AbstractVector:
        value = self._eval_node(expr, env, solver, record, callsites)
        if record is not None:
            expr_values, _ = record
            previous = expr_values.get(id(expr))
            expr_values[id(expr)] = value if previous is None \
                else self.suite.join(previous, value)
        return value

    def _eval_node(self, expr: Expr,
                   env: Mapping[str, AbstractVector],
                   solver: WorklistSolver,
                   record: tuple[dict, dict] | None,
                   callsites: dict[str, tuple[AbstractVector, ...]]) \
            -> AbstractVector:
        if isinstance(expr, Const):
            return self.suite.const_vector(expr.value)
        if isinstance(expr, Var):
            vector = env.get(expr.name)
            if vector is None:
                raise PEError(f"unbound variable {expr.name!r} during "
                              f"analysis")
            return vector
        if isinstance(expr, Prim):
            args = [self._eval(a, env, solver, record, callsites)
                    for a in expr.args]
            outcome = self.suite.apply_prim(expr.op, args)
            if record is not None:
                self._annotate_prim(record[1], expr, outcome)
            return outcome.vector
        if isinstance(expr, If):
            test = self._eval(expr.test, env, solver, record, callsites)
            then = self._eval(expr.then, env, solver, record, callsites)
            else_ = self._eval(expr.else_, env, solver, record,
                               callsites)
            if record is not None:
                record[1][id(expr)] = IfAnnotation(
                    test.bt, self._if_vector(test, then, else_))
            return self._if_vector(test, then, else_)
        if isinstance(expr, Let):
            bound = self._eval(expr.bound, env, solver, record,
                               callsites)
            inner = dict(env)
            inner[expr.name] = bound
            return self._eval(expr.body, inner, solver, record,
                              callsites)
        if isinstance(expr, Call):
            args = tuple(self._eval(a, env, solver, record, callsites)
                         for a in expr.args)
            old = callsites.get(expr.fn)
            callsites[expr.fn] = args if old is None else tuple(
                self._merge(o, n) for o, n in zip(old, args))
            result = self._call_result(expr.fn, args, solver)
            if record is not None:
                record[1][id(expr)] = CallAnnotation(expr.fn, args,
                                                     result)
            return result
        raise PEError(
            f"higher-order node {type(expr).__name__} reached the "
            f"first-order analysis")

    def _if_vector(self, test: AbstractVector, then: AbstractVector,
                   else_: AbstractVector) -> AbstractVector:
        """Figure 4's conditional rule."""
        if self.suite.is_bottom(test):
            return self.suite.bottom(None)
        joined = self.suite.join(then, else_)
        if test.bt.is_static:
            return joined
        if self.suite.is_bottom(joined):
            return self.suite.bottom(joined.sort)
        # Dynamic test: the value is residual even if both branches are
        # static — force the binding time to Dynamic, keep facet joins.
        return AbstractVector(joined.sort, BT.DYNAMIC, joined.user)

    def _call_result(self, name: str,
                     args: tuple[AbstractVector, ...],
                     solver: WorklistSolver) -> AbstractVector:
        """Figure 4's call rule: any Dynamic argument short-circuits to
        ``(Dynamic, T, ..., T)``; otherwise ask ``zeta``."""
        if any(self.suite.is_bottom(a) for a in args):
            return self.suite.bottom(None)
        if any(a.bt.is_dynamic for a in args):
            return self.suite.dynamic(None)
        return self._zeta_ask(solver, name, args)

    # -- annotations ------------------------------------------------------------
    def _annotate_prim(self, annotations: dict, expr: Prim,
                       outcome: AbstractOutcome) -> None:
        if outcome.static and outcome.producer == "bt":
            annotation = PrimAnnotation(FOLD, None, outcome.vector)
        elif outcome.static:
            annotation = PrimAnnotation(TRIGGER, outcome.producer,
                                        outcome.vector)
        else:
            annotation = PrimAnnotation(RESIDUAL, None, outcome.vector)
        previous = annotations.get(id(expr))
        if isinstance(previous, PrimAnnotation) \
                and previous.action != annotation.action:
            # Joined over contexts a node can only get *less* static.
            annotation = PrimAnnotation(
                RESIDUAL, None,
                self.suite.join(previous.vector, annotation.vector))
        annotations[id(expr)] = annotation

    def _compute_needed_facets(self, signatures: dict[str, Signature],
                               annotations: dict[int, object]) \
            -> dict[str, frozenset[str]]:
        """Which facets must the offline specializer track per function?

        A facet is needed where one of its open operators triggers, and
        transitively in every caller that has to pass its values down.
        """
        own: dict[str, set[str]] = {}
        calls: dict[str, set[str]] = {}
        for name in signatures:
            fundef = self.functions[name]
            producers: set[str] = set()
            callees: set[str] = set()
            stack: list[Expr] = [fundef.body]
            while stack:
                node = stack.pop()
                stack.extend(node.children())
                annotation = annotations.get(id(node))
                if isinstance(annotation, PrimAnnotation) \
                        and annotation.action == TRIGGER \
                        and annotation.producer:
                    producers.add(annotation.producer)
                if isinstance(node, Call):
                    callees.add(node.fn)
            own[name] = producers
            calls[name] = callees

        needed = {name: set(facets) for name, facets in own.items()}
        changed = True
        while changed:
            changed = False
            for name, callees in calls.items():
                for callee in callees:
                    extra = needed.get(callee, set()) - needed[name]
                    if extra:
                        needed[name] |= extra
                        changed = True
        return {name: frozenset(facets)
                for name, facets in needed.items()}


def analyze(program: Program,
            inputs: Sequence[AbstractVector | Value],
            suite: FacetSuite | AbstractSuite | None = None,
            config: AnalysisConfig | None = None) -> AnalysisResult:
    """One-shot facet analysis (Figure 4)."""
    return FacetAnalyzer(program, suite, config).analyze(inputs)


def analysis_input(suite: AbstractSuite,
                   item: FacetVector | Value) -> AbstractVector:
    """The abstract vector one specialization input enters the facet
    analysis as.

    A literal, or a facet vector whose PE component is a constant, is
    Static of its sort with every facet at top: the analysis depends
    on which inputs are known, not on their values (Section 5), so
    every literal of a sort shares one analysis, and the specializer
    still folds on the actual constant.  Any other vector enters as
    its abstract image — ``dyn`` as Dynamic, ``size=3`` as
    ``<Dynamic, 3>``, ``interval=1:9`` and ``interval=2:8`` apart.
    (:meth:`FacetAnalyzer.analyze` itself still reads a bare value as
    its exact image ``K~[c]``.)
    """
    if is_value(item):
        return suite.static(sort_of(item))
    if item.pe.is_const:
        return suite.static(item.sort)
    return suite.abstract_of_online(item)
