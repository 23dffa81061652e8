#!/usr/bin/env python3
"""Generating extensions: emit a program's specializer once, use it
many times.

The offline pipeline splits work into three stages:

    facet analysis  (once per binding-time pattern)
      -> emission   (once: the annotated program becomes a Python
                     module of specialization decisions)
        -> specialization  (once per concrete/abstract input instance)

This example emits the generating extension of the polynomial
evaluator for the pattern "coefficient vector of static size, dynamic
point" and mass-produces specialized evaluators for a family of
degrees, checking each against the offline specializer and the source.

Run:  python examples/generating_extension.py
"""

import time

from repro import (
    AbstractSuite, FacetSuite, Interpreter, VectorSizeFacet, Vector,
    analyze, parse_program, pretty_program)
from repro.genext import emit_genext, load_genext
from repro.genext.emit import generalized_pattern
from repro.lang.interp import run_program
from repro.offline.specializer import OfflineSpecializer
from repro.service.specs import parse_specs
from repro.workloads import POLY_EVAL_SRC

DEGREES = list(range(1, 11))


def main() -> None:
    suite = FacetSuite([VectorSizeFacet()])
    # Any size stands for the whole pattern class: one emitted module
    # serves every degree.
    pattern_specs = ["size=1", "dyn"]

    start = time.perf_counter()
    emitted = emit_genext(POLY_EVAL_SRC, pattern_specs, suite=suite)
    emit_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    genext = load_genext(emitted.python_source)
    load_ms = (time.perf_counter() - start) * 1e3
    lines = emitted.python_source.count("\n")
    print(f"analysis + emission: {emit_ms:.2f} ms (once per pattern, "
          f"{lines} lines of Python); load: {load_ms:.2f} ms\n")

    # The unstaged reference: the offline specializer over the same
    # analysis the module was emitted from.
    program = parse_program(POLY_EVAL_SRC)
    abstract_suite = AbstractSuite(suite)
    pattern, _, _ = generalized_pattern(suite, abstract_suite,
                                        pattern_specs)
    specializer = OfflineSpecializer(
        analyze(program, list(pattern), abstract_suite), suite)

    for degree in DEGREES:
        specs = [f"size={degree}", "dyn"]
        staged = genext.specialize_specs(specs)
        unstaged = specializer.specialize(parse_specs(suite, specs))
        assert staged.program == unstaged.program
        coefficients = Vector.of([float(i + 1) for i in range(degree)])
        want = run_program(program, coefficients, 2.0)
        got = Interpreter(staged.program).run(coefficients, 2.0)
        assert want == got

    print(f"{len(DEGREES)} specialized evaluators produced; every "
          f"residual matches the offline specializer and the source "
          f"semantics ✓\n")
    print("Degree-3 residual:")
    print(pretty_program(
        genext.specialize_specs(["size=3", "dyn"]).program))


if __name__ == "__main__":
    main()
