"""Pretty-printer unit tests, including parse/print round-trips."""

import sys

import pytest

from repro.lang.ast import Const, FunDef, If, Var
from repro.lang.parser import parse_expr, parse_program
from repro.lang.program import Program
from repro.lang.pretty import (
    pretty, pretty_def, pretty_indented, pretty_program)
from repro.workloads import WORKLOADS


class TestPrettyExpr:
    def test_constants(self):
        assert pretty(parse_expr("42")) == "42"
        assert pretty(parse_expr("true")) == "true"
        assert pretty(parse_expr("2.5")) == "2.5"

    def test_prim(self):
        assert pretty(parse_expr("(+ 1 2)")) == "(+ 1 2)"

    def test_if(self):
        assert pretty(parse_expr("(if true 1 2)")) == "(if true 1 2)"

    def test_let(self):
        assert pretty(parse_expr("(let ((x 1)) x)")) \
            == "(let ((x 1)) x)"

    def test_lambda(self):
        assert pretty(parse_expr("(lambda (x y) x)")) \
            == "(lambda (x y) x)"

    def test_application(self):
        e = parse_expr("(f 1 2)", scope={"f"})
        assert pretty(e) == "(f 1 2)"

    def test_zero_arg_application(self):
        e = parse_expr("(f)", scope={"f"})
        assert pretty(e) == "(f)"


class TestRoundTrips:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_roundtrip(self, name):
        program = WORKLOADS[name].program()
        reparsed = parse_program(pretty_program(program))
        assert reparsed == program

    @pytest.mark.parametrize("src", [
        "(+ 1 (* 2 (- 3 4)))",
        "(if (< x 0) (neg x) x)",
        "(let ((a 1) (b 2)) (+ a b))",
        "(lambda (f) (f 1))",
        "((lambda (x) x) 5)",
    ])
    def test_expr_roundtrip(self, src):
        e = parse_expr(src, scope={"x"})
        assert parse_expr(pretty(e), scope={"x"}) == e


class TestLayout:
    def test_short_definitions_stay_on_one_line(self):
        program = parse_program("(define (f x) x)")
        assert pretty_program(program).strip() == "(define (f x) x)"

    def test_long_bodies_indent(self):
        program = WORKLOADS["inner_product"].program()
        text = pretty_def(program.get("dotprod"), width=40)
        assert "\n" in text

    def test_indented_respects_width(self):
        e = parse_expr("(+ 1 2)")
        assert pretty_indented(e, width=72) == "(+ 1 2)"

    def test_program_has_blank_lines_between_defs(self):
        program = WORKLOADS["inner_product"].program()
        assert "\n\n" in pretty_program(program)

    def test_every_node_kind_breaks_in_its_own_layout(self):
        e = parse_expr("(let ((g (lambda (a b) (if (< a b) (* a (+ b 1)) "
                       "(f a))))) (g (+ x 100) ((lambda (y) (- y 1)) x)))",
                       scope={"x", "f"})
        assert pretty_indented(e, width=24) == (
            "(let ((g (lambda (a b)\n"
            "      (if (< a b)\n"
            "        (* a (+ b 1))\n"
            "        (f a)))))\n"
            "  (g\n"
            "    (+ x 100)\n"
            "    ((lambda (y)\n"
            "        (- y 1))\n"
            "      x)))")


class TestDeepResiduals:
    """Residuals nest far deeper than the host stack: printing them
    must not recurse per level."""

    DEPTH = 5_000

    def _chain(self):
        body = Const(1)
        for _ in range(self.DEPTH):
            body = If(Var("x"), body, Const(0))
        return body

    def test_deep_residual_prints_without_recursion(self):
        limit = sys.getrecursionlimit()
        body = self._chain()
        text = pretty_program(Program((FunDef("f", ("x",), body),)))
        lines = text.splitlines()
        # One "(if x" line per level going in, one "0)" line per level
        # coming out, each indented by its depth.
        assert lines[0] == "(define (f x)"
        assert lines[1] == "  (if x"
        assert lines[self.DEPTH] == "  " * self.DEPTH + "(if x"
        assert lines[-1] == "    0))"
        assert len(lines) == 2 * self.DEPTH + 2
        assert pretty(body) == "(if x " * self.DEPTH + "1" + " 0)" * self.DEPTH
        assert sys.getrecursionlimit() == limit
