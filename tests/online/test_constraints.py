"""Constraint propagation extension tests (Section 4.4 future work)."""

import pytest

from repro.facets import FacetSuite, IntervalFacet, ParityFacet, \
    SignFacet
from repro.facets.library.interval import EMPTY, Interval
from repro.facets.library.sign import NEG, POS, ZERO
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.lang.values import INT
from repro.online import PEConfig, specialize_online
from repro.online.constraints import refine_branch_bindings
from repro.lang.parser import parse_expr
from repro.service.worker import execute_request

CONFIG = PEConfig(propagate_constraints=True)


def suite():
    return FacetSuite([SignFacet(), IntervalFacet()])


class TestRefineEngine:
    def test_sign_refined_by_zero_comparison(self):
        s = suite()
        lookup = {"x": s.unknown(INT)}
        test = parse_expr("(< x 0)", scope={"x"})
        refined = refine_branch_bindings(s, test, lookup, assume=True)
        assert refined["x"].user[0] == NEG

    def test_negation_refines_else_branch(self):
        s = suite()
        lookup = {"x": s.unknown(INT)}
        test = parse_expr("(>= x 0)", scope={"x"})
        # assume False: x < 0.
        refined = refine_branch_bindings(s, test, lookup, assume=False)
        assert refined["x"].user[0] == NEG

    def test_interval_narrowing(self):
        s = suite()
        lookup = {"i": s.input(INT, interval=Interval(0, 100))}
        test = parse_expr("(< i 10)", scope={"i"})
        refined = refine_branch_bindings(s, test, lookup, assume=True)
        assert refined["i"].user[1] == Interval(0, 9)
        refined = refine_branch_bindings(s, test, lookup, assume=False)
        assert refined["i"].user[1] == Interval(10, 100)

    def test_equality_pins_constant(self):
        s = suite()
        lookup = {"x": s.unknown(INT)}
        test = parse_expr("(= x 5)", scope={"x"})
        refined = refine_branch_bindings(s, test, lookup, assume=True)
        assert refined["x"].pe.is_const
        assert refined["x"].pe.constant() == 5

    def test_inequality_false_pins_constant(self):
        s = suite()
        lookup = {"x": s.unknown(INT)}
        test = parse_expr("(!= x 5)", scope={"x"})
        refined = refine_branch_bindings(s, test, lookup, assume=False)
        assert refined["x"].pe.constant() == 5

    def test_variable_variable_comparison(self):
        s = suite()
        lookup = {"a": s.input(INT, interval=Interval(0, 10)),
                  "b": s.input(INT, interval=Interval(5, 20))}
        test = parse_expr("(< b a)", scope={"a", "b"})
        refined = refine_branch_bindings(s, test, lookup, assume=True)
        # b < a with a <= 10: b <= 9; and a > b >= 5: a >= 6.
        assert refined["b"].user[1] == Interval(5, 9)
        assert refined["a"].user[1] == Interval(6, 10)

    def test_non_comparison_tests_ignored(self):
        s = suite()
        lookup = {"p": s.unknown("bool")}
        test = parse_expr("(and p p)", scope={"p"})
        assert refine_branch_bindings(s, test, lookup, True) == {}

    def test_contradictory_assumption_gives_bottom(self):
        s = suite()
        lookup = {"x": s.input(INT, sign="pos")}
        test = parse_expr("(< x 0)", scope={"x"})
        refined = refine_branch_bindings(s, test, lookup, assume=True)
        # pos meet neg is empty: the branch is dead.
        assert s.is_bottom(refined["x"])


class TestSpecializationWithConstraints:
    ABS_SRC = """
    (define (main x)
      (if (< x 0)
          (classify (neg x))
          (classify x)))
    (define (classify y)
      (if (< y 0) -1 (if (> y 0) 1 0)))
    """

    def test_branch_knowledge_folds_downstream_tests(self):
        program = parse_program(self.ABS_SRC)
        s = suite()
        result = specialize_online(program, [s.unknown(INT)], s,
                                   CONFIG)
        text = str(result.program)
        # The negative branch of classify is provably dead everywhere.
        assert "-1" not in text
        assert result.stats.constraint_refinements > 0

    def test_semantics_preserved(self):
        program = parse_program(self.ABS_SRC)
        s = suite()
        result = specialize_online(program, [s.unknown(INT)], s,
                                   CONFIG)
        for x in (-9, -1, 0, 1, 9):
            assert Interpreter(result.program).run(x) \
                == run_program(program, x)

    def test_disabled_by_default(self):
        program = parse_program(self.ABS_SRC)
        s = suite()
        result = specialize_online(program, [s.unknown(INT)], s)
        assert result.stats.constraint_refinements == 0

    def test_range_check_elimination(self):
        src = """
        (define (main i V)
          (if (and (>= i 1) (<= i 8))
              (checked V i)
              -1.0))
        (define (checked V i)
          (if (and (>= i 1) (<= i (vsize V)))
              (vref V i)
              -2.0))
        """
        from repro.facets import VectorSizeFacet
        from repro.lang.values import VECTOR, Vector
        s = FacetSuite([SignFacet(), IntervalFacet(),
                        VectorSizeFacet()])
        program = parse_program(src)
        # Conjunction tests aren't comparisons, so split manually: use
        # nested ifs instead.
        src2 = src.replace(
            "(if (and (>= i 1) (<= i 8))",
            "(if (>= i 1) (if (<= i 8)").replace(
            "(checked V i)\n              -1.0))",
            "(checked V i) -1.0) -1.0))")
        program = parse_program(src2)
        result = specialize_online(
            program, [s.unknown(INT), s.input(VECTOR, size=8)], s,
            CONFIG)
        # Inside the guarded region the inner bounds check folded away.
        assert "-2.0" not in str(result.program)
        table = Vector.of([float(i) for i in range(1, 9)])
        for i in (0, 1, 5, 8, 11):
            assert Interpreter(result.program).run(i, table) \
                == run_program(program, i, table)

    def test_equality_branch_specializes_on_constant(self):
        src = """
        (define (main n)
          (if (= n 4) (pow2 n) 0))
        (define (pow2 k) (if (= k 0) 1 (* 2 (pow2 (- k 1)))))
        """
        program = parse_program(src)
        s = suite()
        result = specialize_online(program, [s.unknown(INT)], s,
                                   CONFIG)
        # n = 4 in the then-branch: pow2 folds to 16 entirely.
        assert "(if (= n 4) 16 0)" in str(result.program)


class TestSortlessInputs:
    """Through the service a ``dyn`` input is the unknown value of
    unknown sort.  The comparisons raise on mixed operands, so in
    either branch it has the sort the other operand selects, and it
    refines like a dynamic int."""

    GUARDED_SRC = """
    (define (main i)
      (if (>= i 1) (if (<= i 100) (step i) 0) 0))
    (define (step i)
      (if (>= i 1) (if (<= i 100) (* i 2) -1) -1))
    """

    def test_sortless_operand_takes_the_overload_sort(self):
        s = suite()
        test = parse_expr("(< x 0)", scope={"x"})
        refined = refine_branch_bindings(s, test, {"x": s.unknown()},
                                         assume=True)
        assert refined["x"].sort == INT
        assert refined["x"].user[0] == NEG

    @pytest.mark.parametrize("source", [
        TestSpecializationWithConstraints.ABS_SRC, GUARDED_SRC],
        ids=["abs_classify", "guarded_chain"])
    def test_dyn_refines_like_an_interval_input(self, source):
        def run(spec):
            return execute_request({
                "source": source, "specs": [spec], "engine": "online",
                "config": {"propagate_constraints": True}})
        dyn, interval = run("dyn"), run("interval=-1000:1000")
        assert dyn["stats"]["constraint_refinements"] > 0
        assert dyn["residual"] == interval["residual"]
        program, residual = parse_program(source), \
            parse_program(dyn["residual"])
        for x in (-5, 0, 1, 50, 100, 101):
            assert run_program(residual, x) == run_program(program, x)


class TestRefinementSafety:
    """Refinements must be meets: every concrete value reaching the
    branch is still described."""

    @pytest.mark.parametrize("facet_cls,op", [
        (SignFacet, "<"), (SignFacet, ">="), (SignFacet, "="),
        (IntervalFacet, "<"), (IntervalFacet, "<="),
        (IntervalFacet, ">"), (IntervalFacet, "="),
        (IntervalFacet, "!="),
    ])
    def test_refinement_is_a_narrowing(self, facet_cls, op):
        facet = facet_cls()
        refiner = facet.refine_ops[op]
        for a in facet.sample_abstract_values():
            for b in facet.sample_abstract_values():
                for assume in (True, False):
                    new_a, new_b = refiner(assume, a, b)
                    assert facet.domain.leq(new_a, a)
                    assert facet.domain.leq(new_b, b)

    @pytest.mark.parametrize("facet_cls", [SignFacet, IntervalFacet])
    def test_refinement_keeps_witnesses(self, facet_cls):
        """For concrete (x, y) satisfying the assumed test, the refined
        abstractions still describe x and y."""
        from repro.lang.primitives import apply_primitive
        facet = facet_cls()
        values = range(-4, 5)
        for op, refiner in facet.refine_ops.items():
            for x in values:
                for y in values:
                    truth = apply_primitive(op, [x, y])
                    new_x, new_y = refiner(
                        truth, facet.abstract(x), facet.abstract(y))
                    assert facet.concretizes(x, new_x), (op, x, y)
                    assert facet.concretizes(y, new_y), (op, x, y)