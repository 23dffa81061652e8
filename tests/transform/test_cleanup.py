"""Whole-program cleanup unit tests."""

import pytest

from repro.lang.parser import parse_program
from repro.lang.program import Program
from repro.lang.ast import Call, Const, FunDef, Var
from repro.transform.cleanup import (
    canonical_names, drop_unreachable, rename_functions)


class TestDropUnreachable:
    def test_unused_function_removed(self):
        program = parse_program("""
            (define (main x) (used x))
            (define (used y) y)
            (define (dead z) z)
        """)
        cleaned = drop_unreachable(program)
        assert [d.name for d in cleaned.defs] == ["main", "used"]

    def test_transitive_reachability(self):
        program = parse_program("""
            (define (main x) (a x))
            (define (a x) (b x))
            (define (b x) x)
        """)
        assert len(drop_unreachable(program)) == 3

    def test_first_class_references_keep_functions(self):
        program = parse_program("""
            (define (main x) (apply-it helper x))
            (define (apply-it f v) (f v))
            (define (helper y) y)
        """)
        assert len(drop_unreachable(program)) == 3

    def test_goal_always_kept(self):
        program = parse_program("(define (main x) x)")
        assert len(drop_unreachable(program)) == 1


class TestRenames:
    def test_rename_functions_rewrites_call_sites(self):
        program = parse_program("""
            (define (main x) (old x))
            (define (old y) (old y))
        """)
        renamed = rename_functions(program, {"old": "new"})
        assert renamed.get("new").body == Call("new", (Var("y"),))
        assert renamed.get("main").body == Call("new", (Var("x"),))

    def test_canonical_names(self):
        program = Program((
            FunDef("main", ("x",), Call("f!1", (Var("x"),))),
            FunDef("f!1", ("y",), Call("f!7", (Var("y"),))),
            FunDef("f!7", ("z",), Var("z"))))
        tidy = canonical_names(program)
        assert [d.name for d in tidy.defs] == ["main", "f_1", "f_2"]
        assert tidy.get("f_1").body == Call("f_2", (Var("y"),))

    def test_canonical_names_avoid_collisions(self):
        program = Program((
            FunDef("main", ("x",), Call("f!1", (Var("x"),))),
            FunDef("f_1", ("y",), Var("y")),
            FunDef("f!1", ("z",), Var("z"))))
        tidy = canonical_names(program)
        names = [d.name for d in tidy.defs]
        assert len(set(names)) == 3

    def test_empty_renames_is_identity(self):
        program = parse_program("(define (main x) x)")
        assert rename_functions(program, {}) is program
