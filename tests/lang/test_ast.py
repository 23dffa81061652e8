"""AST traversal and transformation unit tests."""

import pytest

import repro.lang.ast as ast_module
from repro.lang.ast import (
    App, Call, Const, If, Lam, Let, Prim, Var, alpha_equal,
    called_functions, count_occurrences, expr_size, free_vars,
    fresh_name, map_expr, substitute, used_primitives, walk)
from repro.lang.parser import parse_expr


def expr(src: str, scope=frozenset(), fns=frozenset()):
    return parse_expr(src, function_names=fns, scope=scope)


class TestWalkAndSize:
    def test_walk_yields_all_nodes_preorder(self):
        e = expr("(+ 1 (* 2 3))")
        nodes = list(walk(e))
        assert nodes[0] is e
        assert len(nodes) == 5

    def test_expr_size(self):
        assert expr_size(Const(1)) == 1
        assert expr_size(expr("(+ 1 2)")) == 3
        assert expr_size(expr("(if true 1 (+ 2 3))")) == 6

    def test_size_of_let(self):
        assert expr_size(expr("(let ((x 1)) x)")) == 3


class TestFreeVars:
    def test_constant_has_no_free_vars(self):
        assert free_vars(Const(1)) == frozenset()

    def test_variable_is_free(self):
        assert free_vars(Var("x")) == {"x"}

    def test_let_binds(self):
        e = expr("(let ((x y)) (+ x z))", scope={"y", "z"})
        assert free_vars(e) == {"y", "z"}

    def test_let_bound_expr_not_in_scope_of_binding(self):
        e = Let("x", Var("x"), Var("x"))
        assert free_vars(e) == {"x"}

    def test_lambda_binds_params(self):
        e = expr("(lambda (x y) (+ x z))", scope={"z"})
        assert free_vars(e) == {"z"}

    def test_call_args(self):
        e = expr("(f x y)", scope={"x", "y"}, fns={"f"})
        assert free_vars(e) == {"x", "y"}


class TestOccurrences:
    def test_simple_count(self):
        e = expr("(+ x (* x x))", scope={"x"})
        assert count_occurrences(e, "x") == 3

    def test_shadowed_by_let(self):
        e = Let("x", Var("x"), Var("x"))
        assert count_occurrences(e, "x") == 1  # only the bound expr

    def test_shadowed_by_lambda(self):
        e = expr("(lambda (x) x)")
        assert count_occurrences(e, "x") == 0

    def test_absent(self):
        assert count_occurrences(expr("(+ 1 2)"), "x") == 0

    def test_limit_stops_the_count(self):
        e = expr("(+ x (* x x))", scope={"x"})
        assert count_occurrences(e, "x", limit=1) == 1
        assert count_occurrences(e, "x", limit=2) == 2
        assert count_occurrences(e, "x", limit=4) == 3


class TestSubstitute:
    def test_simple(self):
        e = substitute(Var("x"), {"x": Const(3)})
        assert e == Const(3)

    def test_parallel(self):
        e = substitute(expr("(+ x y)", scope={"x", "y"}),
                       {"x": Var("y"), "y": Var("x")})
        assert e == Prim("+", (Var("y"), Var("x")))

    def test_let_shadowing_stops_substitution(self):
        e = expr("(let ((x 1)) x)")
        out = substitute(e, {"x": Const(9)})
        assert out == e

    def test_let_capture_avoided(self):
        # Substituting y := x into (let ((x 1)) (+ x y)) must not
        # capture the substituted x.
        e = Let("x", Const(1), Prim("+", (Var("x"), Var("y"))))
        out = substitute(e, {"y": Var("x")})
        assert isinstance(out, Let)
        assert out.name != "x"
        assert out.body == Prim("+", (Var(out.name), Var("x")))

    def test_lambda_capture_avoided(self):
        e = Lam(("x",), Prim("+", (Var("x"), Var("y"))))
        out = substitute(e, {"y": Var("x")})
        assert isinstance(out, Lam)
        assert out.params[0] != "x"
        assert out.body == Prim("+", (Var(out.params[0]), Var("x")))

    def test_empty_bindings_identity(self):
        e = expr("(+ x 1)", scope={"x"})
        assert substitute(e, {}) is e

    def test_value_free_vars_computed_once(self, monkeypatch):
        # The simplifier inlines a single-use let bound across every
        # binder of a deeply unfolded residual; recomputing the value's
        # free variables at each binder made that quadratic (a
        # generated program's simple-PE residual took minutes).
        value = Prim("+", (Var("a"), Var("b")))
        body = Var("x")
        for i in range(50):
            body = Let(f"v{i}", Var("c"),
                       Prim("+", (Var(f"v{i}"), body)))
        calls = []

        def counting(e):
            if e is value:
                calls.append(e)
            return free_vars(e)

        monkeypatch.setattr(ast_module, "free_vars", counting)
        out = substitute(body, {"x": value})
        monkeypatch.undo()
        assert len(calls) == 1
        assert free_vars(out) == {"a", "b", "c"}
        assert count_occurrences(out, "a") == 1


class TestAlphaEqual:
    def test_identical(self):
        e = expr("(+ x 1)", scope={"x"})
        assert alpha_equal(e, e)

    def test_renamed_let(self):
        a = expr("(let ((x 1)) (+ x 2))")
        b = expr("(let ((y 1)) (+ y 2))")
        assert alpha_equal(a, b)

    def test_renamed_lambda(self):
        a = expr("(lambda (x) x)")
        b = expr("(lambda (z) z)")
        assert alpha_equal(a, b)

    def test_free_vars_must_match(self):
        assert not alpha_equal(Var("x"), Var("y"))

    def test_structure_must_match(self):
        assert not alpha_equal(expr("(+ 1 2)"), expr("(- 1 2)"))

    def test_constants_distinguish_sorts(self):
        assert not alpha_equal(Const(1), Const(1.0))
        assert not alpha_equal(Const(1), Const(True))

    def test_bound_vs_free_not_equal(self):
        a = expr("(let ((x 1)) x)")
        b = Let("y", Const(1), Var("x"))
        assert not alpha_equal(a, b)

    def test_nested_binders(self):
        a = expr("(let ((x 1)) (let ((y 2)) (+ x y)))")
        b = expr("(let ((p 1)) (let ((q 2)) (+ p q)))")
        c = expr("(let ((p 1)) (let ((q 2)) (+ q p)))")
        assert alpha_equal(a, b)
        assert not alpha_equal(a, c)


class TestHelpers:
    def test_called_functions(self):
        e = expr("(+ (f 1) (g (f 2)))", fns={"f", "g"})
        assert called_functions(e) == {"f", "g"}

    def test_used_primitives(self):
        e = expr("(+ 1 (* 2 (- 3 4)))")
        assert used_primitives(e) == {"+", "*", "-"}

    def test_fresh_name(self):
        assert fresh_name("x", {"y"}) == "x"
        assert fresh_name("x", {"x"}) == "x_1"
        assert fresh_name("x", {"x", "x_1"}) == "x_2"

    def test_map_expr_bottom_up(self):
        e = expr("(+ 1 2)")

        def fold(node):
            if isinstance(node, Prim) and all(
                    isinstance(a, Const) for a in node.args):
                return Const(sum(a.value for a in node.args))
            return node

        assert map_expr(e, fold) == Const(3)

    def test_with_children_roundtrip(self):
        e = expr("(if (< x 1) (+ x 1) (f x))", scope={"x"}, fns={"f"})
        rebuilt = e.with_children(e.children())
        assert rebuilt == e
