"""Program container and validation unit tests."""

import pytest

from repro.lang.ast import Call, Const, FunDef, Prim, Var
from repro.lang.errors import ValidationError
from repro.lang.parser import parse_program
from repro.lang.program import Program, is_first_order
from repro.workloads import WORKLOADS


class TestContainer:
    def test_main_is_first(self):
        program = parse_program("""
            (define (a x) x)
            (define (b x) x)
        """)
        assert program.main.name == "a"

    def test_get(self):
        program = parse_program("(define (f x) x)")
        assert program.get("f").params == ("x",)
        with pytest.raises(ValidationError):
            program.get("g")

    def test_size(self):
        program = parse_program("(define (f x) (+ x 1))")
        assert program.size() == 3

    def test_empty_program_rejected(self):
        with pytest.raises(ValidationError):
            Program(())


class TestValidation:
    def test_duplicate_function(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Program((FunDef("f", ("x",), Var("x")),
                     FunDef("f", ("y",), Var("y")))).validate()

    def test_function_shadowing_primitive(self):
        with pytest.raises(ValidationError, match="shadows"):
            Program((FunDef("vref", ("x",), Var("x")),)).validate()

    def test_duplicate_params(self):
        with pytest.raises(ValidationError, match="duplicate param"):
            Program((FunDef("f", ("x", "x"), Var("x")),)).validate()

    def test_unbound_variable(self):
        with pytest.raises(ValidationError, match="unbound"):
            Program((FunDef("f", ("x",), Var("y")),)).validate()

    def test_unknown_function_call(self):
        body = Call("ghost", (Var("x"),))
        with pytest.raises(ValidationError, match="unknown function"):
            Program((FunDef("f", ("x",), body),)).validate()

    def test_call_arity(self):
        program = Program((
            FunDef("f", ("x",), Call("g", (Var("x"), Var("x")))),
            FunDef("g", ("y",), Var("y"))))
        with pytest.raises(ValidationError, match="expects 1"):
            program.validate()

    def test_prim_arity(self):
        body = Prim("+", (Const(1),))
        with pytest.raises(ValidationError, match="expects 2"):
            Program((FunDef("f", ("x",), body),)).validate()

    def test_unknown_primitive(self):
        body = Prim("zap", (Const(1),))
        with pytest.raises(ValidationError, match="unknown primitive"):
            Program((FunDef("f", ("x",), body),)).validate()

    def test_first_order_mode_rejects_lambda(self):
        program = parse_program("(define (f x) ((lambda (y) y) x))")
        with pytest.raises(ValidationError,
                           match="higher-order|lambda"):
            program.validate(allow_higher_order=False)

    def test_first_order_mode_rejects_fn_reference(self):
        program = parse_program("""
            (define (f x) (g f x))
            (define (g h x) (h x))
        """)
        with pytest.raises(ValidationError):
            program.validate(allow_higher_order=False)


class TestFirstOrderDetection:
    def test_corpus_classification(self):
        for name, workload in WORKLOADS.items():
            assert is_first_order(workload.program()) \
                == (not workload.higher_order), name

    def test_let_bound_name_matching_function_is_fine(self):
        program = parse_program("""
            (define (main x) (let ((helper (+ x 1))) (helper2 helper)))
            (define (helper2 y) y)
        """)
        assert is_first_order(program)
