"""Simple (conventional) partial evaluation — Figure 2 unit tests."""

import pytest

from repro.baselines.simple_pe import DYN, specialize_simple
from repro.facets import FacetSuite
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.lang.values import INT, VECTOR, Vector
from repro.online import PEConfig, UnfoldStrategy, specialize_online
from repro.service.worker import execute_request
from repro.workloads import WORKLOADS


class TestBasics:
    def test_all_static_evaluates(self):
        program = parse_program("(define (f x y) (+ (* x x) y))")
        result = specialize_simple(program, [4, 2])
        assert str(result.program).strip() == "(define (f) 18)"

    def test_all_dynamic_is_identityish(self):
        program = parse_program("(define (f x) (+ x 1))")
        result = specialize_simple(program, [DYN])
        assert "(+ x 1)" in str(result.program)

    def test_sk_p_folds_only_full_constants(self):
        program = parse_program("(define (f x) (+ (* 2 3) x))")
        result = specialize_simple(program, [DYN])
        assert "(+ 6 x)" in str(result.program)

    def test_static_if_reduces(self):
        program = parse_program(
            "(define (f s d) (if (< s 0) (neg d) d))")
        result = specialize_simple(program, [5, DYN])
        assert str(result.program).strip() == "(define (f d) d)"

    def test_bad_input_rejected(self):
        program = parse_program("(define (f x) x)")
        with pytest.raises(Exception):
            specialize_simple(program, ["not-a-value"])

    def test_division_by_zero_stays_residual(self):
        program = parse_program("(define (f x) (div x 0))")
        result = specialize_simple(program, [1])
        assert "div" in str(result.program)


class TestUnfoldAndSpecialize:
    def test_static_loop_unfolds_away(self):
        program = WORKLOADS["gcd"].program()
        result = specialize_simple(program, [12, 18])
        assert str(result.program).strip() == "(define (gcd) 6)"

    def test_dynamic_loop_specializes(self):
        program = parse_program(
            "(define (sum n acc) (if (= n 0) acc "
            "(sum (- n 1) (+ acc n))))")
        result = specialize_simple(program, [DYN, 0])
        assert Interpreter(result.program).run(4) == 10

    def test_power_specialized_on_exponent(self):
        program = WORKLOADS["power"].program()
        result = specialize_simple(program, [DYN, 10])
        assert Interpreter(result.program).run(2) == 1024
        # Fully unfolded: no residual recursion on power.
        assert "power" not in str(result.program).replace(
            "(define (power", "")


class TestEquivalenceWithEmptySuite:
    """Figure 2 == Figure 3 with only the PE facet (no user facets)."""

    CASES = [
        ("(define (f x y) (+ (* x 2) y))", [3, DYN], [(5,), (0,)]),
        ("(define (f x y) (if (< x y) x y))", [DYN, 7],
         [(3,), (12,)]),
        ("""(define (main n x) (loop n x))
            (define (loop n x) (if (= n 0) x
                                   (loop (- n 1) (* x x))))""",
         [2, DYN], [(3,), (-1,)]),
    ]

    @pytest.mark.parametrize("src,inputs,tests", CASES)
    def test_same_residual_semantics(self, src, inputs, tests):
        program = parse_program(src)
        suite = FacetSuite()
        simple = specialize_simple(program, inputs)
        ppe_inputs = [suite.unknown(INT) if v is DYN else v
                      for v in inputs]
        online = specialize_online(program, ppe_inputs, suite)
        assert str(simple.program) == str(online.program)
        for args in tests:
            dynamic = iter(args)
            full = [next(dynamic) if v is DYN else v for v in inputs]
            assert Interpreter(simple.program).run(*args) \
                == run_program(program, *full)

    def test_inner_product_gets_nothing_without_facets(self):
        """The paper's motivation: without the Size facet, the vector
        is just dynamic and SPE leaves the whole recursion residual."""
        program = WORKLOADS["inner_product"].program()
        result = specialize_simple(program, [DYN, DYN])
        text = str(result.program)
        assert "if" in text          # the loop test survives
        assert "vsize" in text       # the size is never discovered

    def test_lambda_argument_unfolds(self):
        """A lambda-valued argument is informative, as online: the
        call unfolds so the closure meets its application."""
        program = parse_program("""
            (define (main x) (apply1 (lambda (a) (* a 2)) x))
            (define (apply1 f y) (f y))
        """)
        result = specialize_simple(program, [DYN])
        assert str(result.program).strip() == "(define (main x) (* x 2))"

    def test_higher_order_beta(self):
        program = parse_program(
            "(define (f x) ((lambda (y) (* y y)) (+ x 1)))")
        result = specialize_simple(program, [DYN])
        assert "lambda" not in str(result.program)
        assert Interpreter(result.program).run(2) == 9


class TestCountsLikeOnline:
    def test_applying_a_function_name_is_one_decision(self):
        """``(f y)`` with ``f`` bound to a top-level function is one
        call decision, as in the online engine."""
        program = parse_program("""
            (define (main x) (apply1 inc x 3))
            (define (apply1 f y k) (+ k (f y)))
            (define (inc y) (+ y 1))
        """)
        simple = specialize_simple(program, [DYN])
        suite = FacetSuite()
        online = specialize_online(program, [suite.unknown(INT)], suite)
        assert str(simple.program) == str(online.program)
        assert simple.stats.decisions == online.stats.decisions == 4


class TestServedEngine:
    def test_constraint_propagation_stays_off(self):
        """Figure 2 has no constraint propagation.  Over the empty
        suite an assumed ``(= x 3)`` would still fold the consequent,
        so the simple engine switches a requested propagation off."""
        source = "(define (f x) (if (= x 3) (+ x 1) 0))"
        residuals = {
            engine: execute_request({
                "source": source, "specs": ["dyn"], "engine": engine,
                "config": {"propagate_constraints": True}})["residual"]
            for engine in ("simple", "online")}
        assert residuals == {
            "simple": "(define (f x) (if (= x 3) (+ x 1) 0))\n",
            "online": "(define (f x) (if (= x 3) 4 0))\n"}
