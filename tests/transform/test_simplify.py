"""Algebraic simplification unit tests (the Figure 8 cleanup pass)."""

import pytest

from repro.lang.ast import Const, If, Let, Prim, Var
from repro.lang.interp import run_program
from repro.lang.parser import parse_expr, parse_program
from repro.lang.pretty import pretty_program
from repro.lang.values import values_equal
from repro.service.worker import execute_request
from repro.transform import simplify
from repro.transform.simplify import (
    definitely_total, simplify_expr, simplify_program)


def expr(src, scope=("x", "y")):
    return parse_expr(src, scope=set(scope))


class TestTotality:
    def test_vars_and_consts_total(self):
        assert definitely_total(Var("x"))
        assert definitely_total(Const(1))

    def test_safe_prims_total(self):
        assert definitely_total(expr("(+ x (* y 2))"))
        assert definitely_total(expr("(< x y)"))

    def test_division_not_total(self):
        assert not definitely_total(expr("(div x y)"))
        assert not definitely_total(expr("(/ 1.0 0.0)"))

    def test_vref_not_total(self):
        assert not definitely_total(
            parse_expr("(vref v 1)", scope={"v"}))

    def test_calls_not_total(self):
        assert not definitely_total(
            parse_expr("(f x)", scope={"x"}, function_names={"f"}))

    def test_if_total_when_all_parts_are(self):
        assert definitely_total(expr("(if (< x 0) x y)"))
        assert not definitely_total(expr("(if (< x 0) (div x y) y)"))


class TestArithmeticIdentities:
    def test_add_zero(self):
        assert simplify_expr(expr("(+ x 0)")) == Var("x")
        assert simplify_expr(expr("(+ 0 x)")) == Var("x")

    def test_float_add_zero(self):
        assert simplify_expr(expr("(+ x 0.0)")) == Var("x")

    def test_sub_zero(self):
        assert simplify_expr(expr("(- x 0)")) == Var("x")

    def test_mul_one(self):
        assert simplify_expr(expr("(* x 1)")) == Var("x")
        assert simplify_expr(expr("(* 1 x)")) == Var("x")

    def test_mul_zero_total_operand(self):
        assert simplify_expr(expr("(* x 0)")) == Const(0)

    def test_mul_zero_keeps_failing_operand(self):
        e = expr("(* (div x y) 0)")
        assert simplify_expr(e) == e

    def test_div_one(self):
        assert simplify_expr(expr("(div x 1)")) == Var("x")

    def test_bool_constants_not_confused_with_ints(self):
        # (+ x false) is ill-typed but must not be treated as (+ x 0).
        e = Prim("+", (Var("x"), Const(False)))
        assert simplify_expr(e) == e


class TestFolding:
    def test_constant_folding(self):
        assert simplify_expr(expr("(+ 2 3)")) == Const(5)
        assert simplify_expr(expr("(< 2 3)")) == Const(True)

    def test_folding_cascades(self):
        assert simplify_expr(expr("(+ (* 2 3) (- 5 1))")) == Const(10)

    def test_erroring_fold_left_residual(self):
        e = expr("(div 1 0)")
        assert simplify_expr(e) == e


class TestConditionals:
    def test_if_true(self):
        assert simplify_expr(expr("(if true x y)")) == Var("x")

    def test_if_false(self):
        assert simplify_expr(expr("(if false x y)")) == Var("y")

    def test_if_same_branches_total_test(self):
        assert simplify_expr(expr("(if (< x y) x x)")) == Var("x")

    def test_if_same_branches_failing_test_kept(self):
        e = expr("(if (= (div x y) 0) x x)")
        assert simplify_expr(e) == e

    def test_if_not_swaps(self):
        out = simplify_expr(expr("(if (not (< x y)) 1 2)"))
        assert out == If(expr("(< x y)"), Const(2), Const(1))

    @pytest.mark.parametrize("src", [
        "(define (f y) (if (< y 0) 1 true))",
        "(define (f y) (if (< y 0) 0.0 -0.0))",
    ])
    def test_branches_equal_only_by_python_eq_are_kept(self, src):
        # 1 == True and 0.0 == -0.0 in Python; the constants differ.
        program = parse_program(src)
        assert simplify_program(program) == program

    def test_alpha_equal_branches_collapse(self):
        out = simplify_expr(expr(
            "(if (< x y) (let ((a (* x y))) (* a a)) "
            "(let ((b (* x y))) (* b b)))"))
        assert out == expr("(let ((a (* x y))) (* a a))")


class TestLets:
    def test_unused_total_binding_dropped(self):
        assert simplify_expr(expr("(let ((z (+ x 1))) y)")) == Var("y")

    def test_unused_failing_binding_kept(self):
        e = expr("(let ((z (div x y))) y)")
        assert simplify_expr(e) == e

    def test_single_use_inlined(self):
        out = simplify_expr(expr("(let ((z (+ x 1))) (* z 2))"))
        assert out == expr("(* (+ x 1) 2)")

    def test_trivial_binding_inlined_even_if_used_twice(self):
        out = simplify_expr(expr("(let ((z x)) (+ z z))"))
        assert out == expr("(+ x x)")

    def test_multi_use_compound_binding_kept(self):
        e = expr("(let ((z (+ x 1))) (* z z))")
        assert simplify_expr(e) == e


class TestSemanticsPreserved:
    @pytest.mark.parametrize("src,args", [
        ("(define (f x) (+ (* x 1) 0))", (5,)),
        ("(define (f x) (if (not (< x 0)) x (neg x)))", (-3,)),
        ("(define (f x) (let ((y (+ x 0))) (* y 1)))", (7,)),
        ("(define (f x) (if (< x 10) (+ 2 3) (* 2 3)))", (4,)),
    ])
    def test_program_equivalence(self, src, args):
        program = parse_program(src)
        simplified = simplify_program(program)
        assert run_program(program, *args) \
            == run_program(simplified, *args)

    def test_bounded_passes_terminate(self, monkeypatch):
        monkeypatch.setattr(simplify, "MAX_PASSES", 1)
        # One pass may leave residue; must still return.
        out = simplify_expr(expr("(+ (+ x 0) 0)"))
        assert out in (Var("x"), expr("(+ x 0)"))


#: Both branches fold to a zero, of opposite signs, when x = -0.0.
SIGNED_ZERO_SRC = "(define (f x y) (if (< y 0) (* x -1.0) x))"


@pytest.mark.parametrize("engine",
                         ("online", "offline", "genext", "simple"))
def test_signed_zero_branches_survive_every_engine(engine):
    outcome = execute_request({"source": SIGNED_ZERO_SRC,
                               "specs": ["-0.0", "dyn"],
                               "engine": engine})
    assert not outcome.get("failed"), outcome.get("error")
    residual = parse_program(outcome["residual"])
    assert pretty_program(residual) \
        == "(define (f y) (if (< y 0) 0.0 -0.0))\n"
    source = parse_program(SIGNED_ZERO_SRC)
    for y in (-1, 1):
        assert values_equal(run_program(residual, y),
                            run_program(source, -0.0, y))
