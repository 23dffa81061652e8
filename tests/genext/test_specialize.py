"""Specializing through an emitted genext module: agreement with the
offline specializer on hand-picked suites and configs, reuse of one
loaded module, and the pattern check at entry.

The curated-corpus and random-program suites
(``test_equivalence.py``, ``tests/differential``) run the default
facet suite; these cases pin the shapes they do not — a size-only and
an empty suite, the ``never`` unfold strategy, lenient mode, the
``fuel`` backstop — plus the contract that one loaded module serves a
whole pattern class, one independent run at a time — and that both
drivers fail alike, since they share the walk's entry and operations,
and walk a deep unfold chain alike, since both run on the trampoline.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.engine.errors import BudgetExhausted, classify
from repro.facets import FacetSuite, SignFacet, VectorSizeFacet
from repro.facets.abstract import AbstractSuite
from repro.genext import emit_genext, load_genext
from repro.genext.emit import generalized_pattern
from repro.lang.errors import PEError
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.values import Vector
from repro.offline import walk
from repro.offline.analysis import analyze
from repro.offline.specializer import OfflineSpecializer
from repro.online.config import PEConfig, UnfoldStrategy
from repro.service.specs import parse_specs
from repro.workloads import WORKLOADS

F_SOURCE = "(define (f x n) (if (= n 0) x (* x n)))"


def _module(source: str, specs, suite: FacetSuite, config=None):
    return load_genext(emit_genext(source, list(specs), suite=suite,
                                   config=config).python_source)


def _offline(source: str, specs, suite: FacetSuite,
             config: PEConfig | None = None) -> OfflineSpecializer:
    """The offline specializer over the module's generalized
    analysis."""
    abstract = AbstractSuite(suite)
    pattern, _, _ = generalized_pattern(suite, abstract, list(specs))
    analysis = analyze(parse_program(source), list(pattern), abstract)
    return OfflineSpecializer(analysis, suite, config)


def _agree(source: str, specs, suite: FacetSuite,
           config: PEConfig | None = None, wire=None):
    fused = _module(source, specs, suite, wire).specialize_specs(
        list(specs))
    offline = _offline(source, specs, suite, config).specialize(
        parse_specs(suite, list(specs)))
    assert fused.program == offline.program
    return fused, offline


class TestAgreement:
    def test_inner_product_residuals_identical(self):
        """A size-only suite: the manifest names one facet."""
        source = WORKLOADS["inner_product"].source
        for size in (1, 3, 5):
            specs = (f"size={size}",) * 2
            _agree(source, specs, FacetSuite([VectorSizeFacet()]))

    def test_power_agreement(self):
        """An empty suite: plain constant folding only."""
        source = WORKLOADS["power"].source
        program = parse_program(source)
        for exponent in (0, 3, 12):
            fused, _ = _agree(source, ("dyn", str(exponent)),
                              FacetSuite())
            assert Interpreter(fused.program).run(2) \
                == run_program(program, 2, exponent)

    def test_sign_triggers_staged(self):
        fused, _ = _agree(
            WORKLOADS["sign_pipeline"].source, ("sign=pos",) * 2,
            FacetSuite([SignFacet()]),
            PEConfig(unfold_strategy=UnfoldStrategy.NEVER),
            {"unfold_strategy": "never"})
        assert fused.stats.folds_by_facet.get("sign", 0) > 0

    def test_stats_match(self):
        fused, offline = _agree(WORKLOADS["inner_product"].source,
                                ("size=4",) * 2,
                                FacetSuite([VectorSizeFacet()]))
        want = offline.stats.as_dict()
        got = fused.stats.as_dict()
        want.pop("phase_seconds")
        got.pop("phase_seconds")
        assert got == want


class TestReuse:
    def test_one_compilation_many_specializations(self):
        """One module, emitted for one size, serves every size."""
        source = WORKLOADS["poly_eval"].source
        program = parse_program(source)
        module = _module(source, ("size=1", "dyn"),
                         FacetSuite([VectorSizeFacet()]))
        for degree in (1, 2, 5):
            result = module.specialize_specs([f"size={degree}", "dyn"])
            coefficients = Vector.of([1.0] * degree)
            assert Interpreter(result.program).run(coefficients, 2.0) \
                == run_program(program, coefficients, 2.0)

    def test_runs_are_independent(self):
        module = _module("(define (f x n) (+ x n))", ("dyn", "1"),
                         FacetSuite())
        first = module.specialize_specs(["dyn", "1"])
        second = module.specialize_specs(["dyn", "2"])
        assert "(+ x 1)" in str(first.program)
        assert "(+ x 2)" in str(second.program)
        want = first.stats.as_dict()
        got = module.specialize_specs(["dyn", "1"]).stats.as_dict()
        # Phase times are wall-clock and differ run to run (genext
        # times its simplify phase); the phases and counters may not.
        assert got.pop("phase_seconds").keys() \
            == want.pop("phase_seconds").keys()
        assert got == want


class TestStrictness:
    def test_pattern_violation_raises(self):
        module = _module(F_SOURCE, ("dyn", "3"), FacetSuite())
        with pytest.raises(PEError, match="Static"):
            # n was analyzed Static but is supplied dynamic.
            module.specialize_specs(["dyn", "dyn"])

    def test_lenient_mode_residualizes(self):
        module = _module(F_SOURCE, ("dyn", "3"), FacetSuite(),
                         {"lenient": True})
        result = module.specialize_specs(["dyn", "dyn"])
        program = parse_program(F_SOURCE)
        for x, n in [(3, 0), (3, 4)]:
            assert Interpreter(result.program).run(x, n) \
                == run_program(program, x, n)


class TestBudgets:
    def test_fuel_is_the_hard_backstop(self):
        """Past ``fuel`` steps both tiers raise — soft budgets or not,
        strict or not."""
        source = WORKLOADS["binary_search"].source
        specs = ("size=7", "dyn")
        suite = FacetSuite([VectorSizeFacet()])
        module = _module(source, specs, suite, {"fuel": 100})
        with pytest.raises(BudgetExhausted) as fused:
            module.specialize_specs(list(specs))
        with pytest.raises(BudgetExhausted) as offline:
            _offline(source, specs, suite, PEConfig(fuel=100)).specialize(
                parse_specs(suite, list(specs)))
        assert fused.value.dimension == offline.value.dimension == "fuel"
        assert str(fused.value) == str(offline.value)


#: Static data grows under dynamic control: with every call
#: specialized, ``k`` takes a new constant per variant.  Over the
#: empty suite the ladder reaches rung 2 at ``max_variants``.
GROWING_SOURCE = """
(define (f x n) (g x n))
(define (g x k) (if (< x 0) k (g (- x 1) (+ k 1))))
"""

#: id -> (source, analyzed specs, given specs, config, what the run
#: ends in: an error-message fragment, or ``None`` for a residual).
FAILURES = {
    "arity": (F_SOURCE, ("dyn", "3"), ("dyn",), {},
              "f: expected 2 inputs, got 1"),
    "off-pattern": (F_SOURCE, ("dyn", "3"), ("dyn", "dyn"), {},
                    "does not match the analyzed pattern"),
    "off-pattern-lenient": (F_SOURCE, ("dyn", "3"), ("dyn", "dyn"),
                            {"lenient": True}, None),
    "rung-2": (GROWING_SOURCE, ("dyn", "3"), ("dyn", "3"),
               {"unfold_fuel": 0, "max_variants": 1},
               "g: more than 1 specialization variants"),
    "unexpected-exception": (F_SOURCE, ("dyn", "3"), ("dyn", "3"), {},
                             "ValueError: injected failure of ="),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_both_drivers_fail_alike(case, monkeypatch):
    source, analyzed, given, config, expected = FAILURES[case]
    suite = FacetSuite()
    module = _module(source, analyzed, suite, config)
    offline = _offline(source, analyzed, suite, PEConfig(**config))
    if case == "unexpected-exception":
        def broken(op, values):
            raise ValueError(f"injected failure of {op}")
        monkeypatch.setattr(walk, "apply_primitive", broken)
    outcomes = []
    for run in (lambda: module.specialize_specs(list(given)),
                lambda: offline.specialize(
                    parse_specs(suite, list(given)))):
        try:
            outcomes.append(pretty_program(run().program))
        except Exception as error:  # noqa: BLE001 — compared below
            outcomes.append((type(error), classify(error), str(error)))
    fused, reference = outcomes
    assert fused == reference
    if expected is None:
        assert isinstance(fused, str)
    else:
        assert expected in fused[2]
    if case == "unexpected-exception":
        assert fused[1] == "specialization"


#: A genext on a 30,000-level unfold chain, in a child process: when
#: the emitted functions recursed on the host stack, this overflowed
#: an 8 MiB C stack and the child died with SIGSEGV (20,000 levels
#: passed, 25,000 crashed).
DEEP_CHILD = textwrap.dedent("""
    from repro.genext import emit_genext, load_genext
    from repro.lang.pretty import pretty_program
    from repro.workloads import deep_static_loop

    module = load_genext(emit_genext(
        deep_static_loop(), ["30000"],
        config={"unfold_fuel": 60000}).python_source)
    print(pretty_program(module.specialize_specs(["30000"]).program))
""")


def test_deep_unfold_chain_keeps_the_process():
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", DEEP_CHILD], env=env,
                           capture_output=True, text=True, timeout=100)
    assert child.returncode == 0, child.stderr[-2000:]
    # Offline's residual: the whole chain folds to its constant.
    assert child.stdout.strip() == "(define (main) 30000)"
