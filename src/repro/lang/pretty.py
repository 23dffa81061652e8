"""Pretty-printer producing surface syntax that re-parses to the same AST.

``parse_program(pretty_program(p))`` is the identity on validated
first-order and higher-order programs (modulo ``let`` re-nesting, which is
syntactically identical), a property the round-trip tests check.  Vector
constants are the exception: a residual that keeps a static vector prints
it as ``#(...)``, which :mod:`repro.lang.parser` cannot read back.
"""

from __future__ import annotations

from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var)
from repro.lang.program import Program
from repro.lang.values import format_value

_INDENT = "  "


def pretty(expr: Expr) -> str:
    """Render an expression on one line."""
    if isinstance(expr, Const):
        return format_value(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Prim):
        return _call_like(expr.op, expr.args)
    if isinstance(expr, Call):
        return _call_like(expr.fn, expr.args)
    if isinstance(expr, If):
        return (f"(if {pretty(expr.test)} {pretty(expr.then)} "
                f"{pretty(expr.else_)})")
    if isinstance(expr, Let):
        return (f"(let (({expr.name} {pretty(expr.bound)})) "
                f"{pretty(expr.body)})")
    if isinstance(expr, Lam):
        params = " ".join(expr.params)
        return f"(lambda ({params}) {pretty(expr.body)})"
    if isinstance(expr, App):
        parts = " ".join(pretty(a) for a in expr.args)
        suffix = f" {parts}" if parts else ""
        return f"({pretty(expr.fn)}{suffix})"
    raise TypeError(f"not an expression: {expr!r}")


def _call_like(head: str, args: tuple[Expr, ...]) -> str:
    parts = " ".join(pretty(a) for a in args)
    return f"({head} {parts})" if parts else f"({head})"


def pretty_indented(expr: Expr, width: int = 72) -> str:
    """Render an expression over multiple lines when it would overflow
    ``width`` columns."""
    return _indented(expr, 0, width)


def _indented(expr: Expr, depth: int, width: int) -> str:
    flat = pretty(expr)
    if len(flat) + depth * len(_INDENT) <= width:
        return flat
    pad = _INDENT * (depth + 1)
    if isinstance(expr, If):
        return (f"(if {_indented(expr.test, depth + 1, width)}\n"
                f"{pad}{_indented(expr.then, depth + 1, width)}\n"
                f"{pad}{_indented(expr.else_, depth + 1, width)})")
    if isinstance(expr, Let):
        return (f"(let (({expr.name} "
                f"{_indented(expr.bound, depth + 2, width)}))\n"
                f"{pad}{_indented(expr.body, depth + 1, width)})")
    if isinstance(expr, Lam):
        params = " ".join(expr.params)
        return (f"(lambda ({params})\n"
                f"{pad}{_indented(expr.body, depth + 1, width)})")
    if isinstance(expr, (Prim, Call, App)):
        if isinstance(expr, Prim):
            head = expr.op
            args = expr.args
        elif isinstance(expr, Call):
            head = expr.fn
            args = expr.args
        else:
            head = _indented(expr.fn, depth + 1, width)
            args = expr.args
        rendered = [f"({head}"]
        for arg in args:
            rendered.append(f"\n{pad}{_indented(arg, depth + 1, width)}")
        return "".join(rendered) + ")"
    return flat


def pretty_def(fundef: FunDef, width: int = 72) -> str:
    """Render one top-level definition."""
    header = " ".join((fundef.name,) + fundef.params)
    body = _indented(fundef.body, 1, width)
    flat = f"(define ({header}) {pretty(fundef.body)})"
    if len(flat) <= width:
        return flat
    return f"(define ({header})\n{_INDENT}{body})"


def pretty_program(program: Program, width: int = 72) -> str:
    """Render a whole program, one definition per paragraph."""
    return "\n\n".join(pretty_def(d, width) for d in program.defs) + "\n"
