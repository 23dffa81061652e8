"""Polyvariant facet analysis — a precision extension over Figure 4.

Figure 4's ``SigEnv`` holds *one* signature per function: argument
vectors from different call sites are joined (monovariant).  When one
function is called both statically and dynamically, the join poisons
the static call site::

    (define (main s d) (+ (helper s) (helper d)))
    (define (helper v) (+ v 1))

Monovariantly, ``helper : <Dynamic> -> <Dynamic>`` — the ``helper s``
call site loses its static result.  A *polyvariant* analysis keeps one
signature per distinct abstract argument pattern, so ``helper`` gets
both ``<Static> -> <Static>`` and ``<Dynamic> -> <Dynamic>`` variants.

The machinery is already there: the first-order analyzer's abstract
function environment ``zeta`` is a worklist fixpoint over
``(function, abstract arguments)`` cells — exactly the polyvariant
signatures, computed but then collapsed into ``pi``.  This module runs
the same engine and *keeps* the cells.  Precision is inherited from the
underlying evaluation; termination from the same finite-height/widening
arguments, with the analyzer's per-function cell cap bounding the
number of variants (past it, patterns generalize).

The result maps each function to its list of variants.  It is an
analysis-level extension: the offline specializer keeps consuming the
monovariant annotations (specializing per-variant is what its
cache keys already do at spec time); the benchmark
``bench_polyvariance.py`` measures the precision gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lang.program import Program
from repro.lang.values import Value
from repro.lattice.bt import BT
from repro.facets.abstract.vector import AbstractSuite, AbstractVector
from repro.facets.vector import FacetSuite
from repro.offline.analysis import (
    AnalysisConfig, AnalysisResult, FacetAnalyzer, Signature)


@dataclass(frozen=True)
class Variant:
    """One polyvariant signature: a distinct argument pattern and the
    result the function produces for it."""

    args: tuple[AbstractVector, ...]
    result: AbstractVector

    def __str__(self) -> str:
        rendered = " x ".join(str(a) for a in self.args)
        return f"{rendered} -> {self.result}"


@dataclass
class PolyvariantResult:
    """Monovariant result plus the per-pattern variants."""

    base: AnalysisResult
    variants: dict[str, tuple[Variant, ...]]

    @property
    def signatures(self) -> dict[str, Signature]:
        return self.base.signatures

    def variant_count(self, name: str) -> int:
        return len(self.variants.get(name, ()))

    def best_result_bt(self, name: str) -> BT:
        """The most precise result binding time any variant achieves —
        the quantity monovariance destroys."""
        variants = self.variants.get(name, ())
        if not variants:
            return self.base.signatures[name].result.bt
        best = BT.DYNAMIC
        for variant in variants:
            if variant.result.bt < best:
                best = variant.result.bt
        return best

    def report(self) -> str:
        lines = []
        for name in self.base.signatures:
            lines.append(f"{name}:")
            lines.append(f"  monovariant: "
                         f"{self.base.signatures[name]}")
            for variant in self.variants.get(name, ()):
                lines.append(f"  variant:     {variant}")
        return "\n".join(lines)


class PolyvariantAnalyzer(FacetAnalyzer):
    """The Figure 4 engine, with ``zeta``'s cells kept as variants."""

    def analyze_polyvariant(
            self, inputs: Sequence[AbstractVector | Value]) \
            -> PolyvariantResult:
        base = self.analyze(inputs)
        # Recover zeta's cells: they ARE the polyvariant signatures.
        variants: dict[str, list[Variant]] = {}
        for name, cells in self._cells_per_fn.items():
            seen: set[tuple] = set()
            for cell in cells:
                value = self._last_solver_values.get(cell)
                if value is None:
                    continue
                _name, args = cell
                key = (args, value)
                if key in seen:
                    continue
                seen.add(key)
                variants.setdefault(name, []).append(
                    Variant(args, value))
        # The goal function is never called, so it has no cell; its
        # lone variant is the monovariant signature.  Same for any
        # function the fixpoint reached only through joined signatures.
        for name, signature in base.signatures.items():
            if not variants.get(name):
                variants[name] = [Variant(signature.args,
                                          signature.result)]
        ordered = {name: tuple(entries)
                   for name, entries in variants.items()}
        return PolyvariantResult(base, ordered)

    def _call_result(self, name, args, solver):  # type: ignore[override]
        """Unlike Figure 4, do NOT short-circuit calls with Dynamic
        arguments to ``(Dynamic, T, ..., T)``: evaluating the body per
        argument pattern is exactly what polyvariance means, and facet
        components under a Dynamic binding time (``<Dynamic, pos>``)
        still sharpen the result."""
        if any(self.suite.is_bottom(a) for a in args):
            return self.suite.bottom(None)
        return self._zeta_ask(solver, name, args)

    # Capture the solver's final values (the base class discards the
    # solver when analyze() returns).
    def _zeta_ask(self, solver, name, args):  # type: ignore[override]
        value = super()._zeta_ask(solver, name, args)
        self._last_solver_values = solver.values
        return value

    _last_solver_values: dict = {}


def analyze_polyvariant(program: Program,
                        inputs: Sequence[AbstractVector | Value],
                        suite: FacetSuite | AbstractSuite | None = None,
                        config: AnalysisConfig | None = None) \
        -> PolyvariantResult:
    """One-shot polyvariant facet analysis."""
    analyzer = PolyvariantAnalyzer(program, suite, config)
    return analyzer.analyze_polyvariant(inputs)
