"""Online parameterized partial evaluation (Figure 3) unit tests."""

import pytest

from repro.facets import (
    FacetSuite, IntervalFacet, ParityFacet, SignFacet, VectorSizeFacet,
    default_suite)
from repro.facets.library.interval import Interval
from repro.lang.errors import PEError
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.values import INT, VECTOR, Vector
from repro.online import (
    OnlineSpecializer, PEConfig, UnfoldStrategy, specialize_online)
from repro.workloads import WORKLOADS


def spec(src, inputs, facets=(), config=None):
    program = parse_program(src)
    suite = FacetSuite(list(facets))
    return suite, specialize_online(program, inputs, suite, config)


class TestConstantPropagation:
    def test_fully_static_input_collapses(self):
        suite = FacetSuite()
        program = parse_program("(define (f x) (+ x 1))")
        result = specialize_online(program, [41], suite)
        assert str(result.program).strip() == "(define (f) 42)"
        assert result.goal_params == ()

    def test_dynamic_input_residualizes(self):
        suite = FacetSuite()
        program = parse_program("(define (f x) (+ x 1))")
        result = specialize_online(program, [suite.unknown(INT)], suite)
        assert "(+ x 1)" in str(result.program)
        assert result.goal_params == ("x",)

    def test_mixed_static_dynamic(self):
        suite = FacetSuite()
        program = parse_program("(define (f x y) (+ (* x x) y))")
        result = specialize_online(
            program, [5, suite.unknown(INT)], suite)
        assert "(+ 25 y)" in str(result.program)

    def test_static_conditional_reduces(self):
        suite = FacetSuite()
        program = parse_program(
            "(define (f x y) (if (< x 0) (neg y) y))")
        result = specialize_online(
            program, [3, suite.unknown(INT)], suite)
        assert "if" not in str(result.program)
        assert result.stats.if_reductions == 1

    def test_dynamic_conditional_specializes_both_branches(self):
        suite = FacetSuite()
        program = parse_program(
            "(define (f x y) (if (< x 0) (+ y 1) (+ y 2)))")
        result = specialize_online(
            program, [suite.unknown(INT), 10], suite)
        text = str(result.program)
        assert "11" in text and "12" in text

    def test_arity_mismatch_rejected(self):
        suite = FacetSuite()
        program = parse_program("(define (f x) x)")
        with pytest.raises(PEError, match="expected 1"):
            specialize_online(program, [1, 2], suite)


class TestFacetDrivenReduction:
    def test_sign_facet_folds_comparison(self):
        program = parse_program("(define (f x) (if (< x 0) (neg x) x))")
        suite = FacetSuite([SignFacet()])
        result = specialize_online(
            program, [suite.input(INT, sign="pos")], suite)
        assert str(result.program).strip() == "(define (f x) x)"
        assert result.stats.folds_by_facet.get("sign") == 1

    def test_parity_facet_folds_equality(self):
        program = parse_program(
            "(define (f x y) (if (= x y) 1 2))")
        suite = FacetSuite([ParityFacet()])
        result = specialize_online(
            program,
            [suite.input(INT, parity="even"),
             suite.input(INT, parity="odd")], suite)
        assert "(define (f x y) 2)" in str(result.program)

    def test_interval_facet_folds_bounds_check(self):
        program = parse_program(
            "(define (f i) (if (and (>= i 0) (< i 10)) i 0))")
        suite = FacetSuite([IntervalFacet()])
        result = specialize_online(
            program, [suite.input(INT, interval=Interval(2, 5))],
            suite)
        assert str(result.program).strip() == "(define (f i) i)"

    def test_facet_values_flow_through_closed_ops(self):
        # x pos, so x+1 pos, so the comparison folds downstream.
        program = parse_program(
            "(define (f x) (if (> (+ x 1) 0) 1 2))")
        suite = FacetSuite([SignFacet()])
        result = specialize_online(
            program, [suite.input(INT, sign="pos")], suite)
        assert str(result.program).strip() == "(define (f x) 1)"

    def test_constant_propagates_to_all_facets(self):
        # vsize folds via the size facet; the resulting constant's sign
        # then folds the comparison via the sign facet.
        program = parse_program(
            "(define (f V) (if (> (vsize V) 0) (vref V 1) 0.0))")
        suite = FacetSuite([SignFacet(), VectorSizeFacet()])
        result = specialize_online(
            program, [suite.input(VECTOR, size=4)], suite)
        assert "(vref V 1)" in str(result.program)
        assert "if" not in str(result.program)


class TestUnfolding:
    SUM_SRC = """
    (define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n))))
    """

    def test_static_recursion_fully_unfolds(self):
        suite = FacetSuite()
        program = parse_program(self.SUM_SRC)
        result = specialize_online(program, [5, 0], suite)
        assert str(result.program).strip() == "(define (sum) 15)"

    def test_partially_static_unfolds_loop(self):
        suite = FacetSuite()
        program = parse_program(self.SUM_SRC)
        result = specialize_online(
            program, [3, suite.unknown(INT)], suite)
        text = str(result.program)
        assert "sum" not in text.replace("(define (sum", "")
        # acc + 3 + 2 + 1 in some association.
        interp = Interpreter(result.program)
        assert interp.run(10) == 16

    def test_unfold_fuel_falls_back_to_specialization(self):
        suite = FacetSuite()
        program = parse_program(self.SUM_SRC)
        config = PEConfig(unfold_fuel=2)
        result = specialize_online(
            program, [50, suite.unknown(INT)], suite, config)
        assert result.stats.specializations > 0
        assert Interpreter(result.program).run(0) == 1275

    def test_never_unfold_strategy(self):
        suite = FacetSuite()
        program = parse_program(self.SUM_SRC)
        config = PEConfig(unfold_strategy=UnfoldStrategy.NEVER)
        result = specialize_online(
            program, [3, suite.unknown(INT)], suite, config)
        assert result.stats.unfoldings == 0
        assert result.stats.specializations > 0
        assert Interpreter(result.program).run(7) == 13

    def test_duplicated_compound_args_get_let_bound(self):
        suite = FacetSuite()
        # The static ``k`` is what makes the call unfold.
        program = parse_program("""
            (define (main y) (twice (+ y y) 1))
            (define (twice v k) (* (* v v) k))
        """)
        result = specialize_online(
            program, [suite.unknown(INT)], suite, PEConfig(simplify=False))
        assert result.stats.unfoldings == 1
        text = str(result.program)
        assert "let" in text, "compound arg used twice must be shared"
        assert Interpreter(result.program).run(3) == 36


class TestSpecializationCache:
    def test_repeated_pattern_hits_cache(self):
        suite = FacetSuite()
        program = parse_program("""
            (define (main x) (+ (helper 3 x) (helper 3 x)))
            (define (helper k v) (* k v))
        """)
        config = PEConfig(unfold_strategy=UnfoldStrategy.NEVER)
        result = specialize_online(
            program, [suite.unknown(INT)], suite, config)
        assert result.stats.specializations == 1
        assert result.stats.cache_hits == 1

    def test_distinct_patterns_make_distinct_variants(self):
        suite = FacetSuite()
        program = parse_program("""
            (define (main x) (+ (helper 3 x) (helper 4 x)))
            (define (helper k v) (* k v))
        """)
        config = PEConfig(unfold_strategy=UnfoldStrategy.NEVER)
        result = specialize_online(
            program, [suite.unknown(INT)], suite, config)
        assert result.stats.specializations == 2

    def test_facet_components_distinguish_patterns(self):
        program = parse_program("""
            (define (main a b) (+ (check a) (check b)))
            (define (check v) (if (< v 0) 0 1))
        """)
        suite = FacetSuite([SignFacet()])
        config = PEConfig(unfold_strategy=UnfoldStrategy.NEVER)
        result = specialize_online(
            program,
            [suite.input(INT, sign="pos"),
             suite.input(INT, sign="neg")],
            suite, config)
        assert result.stats.specializations == 2
        text = pretty_program(result.program)
        assert Interpreter(result.program).run(5, -5) == 1

    def test_recursive_specialization_ties_off(self):
        suite = FacetSuite()
        program = parse_program("""
            (define (loop x) (if (< x 0) 0 (loop (- x 1))))
        """)
        config = PEConfig(unfold_strategy=UnfoldStrategy.NEVER)
        result = specialize_online(
            program, [suite.unknown(INT)], suite, config)
        assert result.stats.specializations == 1
        assert Interpreter(result.program).run(3) == 0

    def test_variant_explosion_generalizes(self):
        # Static argument grows: without generalization the cache would
        # blow up; the max_variants rung must terminate it.
        suite = FacetSuite()
        program = parse_program("""
            (define (main x) (grow 0 x))
            (define (grow k d) (if (< d 0) k (grow (+ k 1) d)))
        """)
        config = PEConfig(unfold_strategy=UnfoldStrategy.NEVER,
                          max_variants=4)
        result = specialize_online(
            program, [suite.unknown(INT)], suite, config)
        assert result.stats.generalizations > 0
        assert Interpreter(result.program).run(-1) == 0

    def test_each_specialize_call_is_an_independent_run(self):
        """A second call starts from an empty cache and fresh
        counters: it equals a run on a new specializer."""
        program = parse_program(WORKLOADS["gcd"].source)
        suite = default_suite()
        inputs = [48, suite.unknown(None)]

        def observed(result):
            stats = result.stats.as_dict()
            del stats["phase_seconds"]
            return (pretty_program(result.program), result.goal_params,
                    stats)

        engine = OnlineSpecializer(program, suite)
        engine.specialize(inputs)
        again = engine.specialize(inputs)
        fresh = OnlineSpecializer(program, suite).specialize(inputs)
        assert observed(again) == observed(fresh)


class TestResidualCorrectness:
    """The golden PE equation on targeted cases."""

    @pytest.mark.parametrize("static,dynamic", [
        (0, 5), (3, -2), (7, 7)])
    def test_power(self, static, dynamic):
        src = """
        (define (power x n)
          (if (= n 0) 1
              (if (= (mod n 2) 0)
                  (square (power x (div n 2)))
                  (* x (power x (- n 1))))))
        (define (square y) (* y y))
        """
        program = parse_program(src)
        suite = FacetSuite()
        # specialize on static exponent; x dynamic — note power's
        # params are (x n) so inputs are [dyn, static].
        result = specialize_online(
            program, [suite.unknown(INT), static], suite)
        assert Interpreter(result.program).run(dynamic) \
            == run_program(program, dynamic, static)

    def test_inner_product_against_interpreter(
            self, inner_product, size_suite, vec3, vec3b):
        inputs = [size_suite.input(VECTOR, size=3)] * 2
        result = specialize_online(inner_product, inputs, size_suite)
        assert Interpreter(result.program).run(vec3, vec3b) \
            == run_program(inner_product, vec3, vec3b)


class TestHigherOrderOnline:
    def test_beta_reduction(self):
        suite = FacetSuite()
        program = parse_program(
            "(define (f x) ((lambda (y) (+ y 1)) x))")
        result = specialize_online(
            program, [suite.unknown(INT)], suite)
        assert "lambda" not in str(result.program)
        assert "(+ x 1)" in str(result.program)

    def test_static_closure_argument_folds(self):
        suite = FacetSuite()
        program = parse_program("""
            (define (main x) (twice (lambda (v) (* v v)) x))
            (define (twice f a) (f (f a)))
        """)
        result = specialize_online(
            program, [suite.unknown(INT)], suite)
        assert Interpreter(result.program).run(3) == 81
        assert "twice" not in str(result.program)

    def test_residual_lambda_body_specialized(self):
        suite = FacetSuite()
        program = parse_program("""
            (define (main x) (pick x))
            (define (pick x) (lambda (y) (+ y (* 0 x))))
        """)
        result = specialize_online(
            program, [suite.unknown(INT)], suite)
        interp = Interpreter(result.program)
        closure = interp.run(5)
        assert interp.apply(closure, [4]) == 4
