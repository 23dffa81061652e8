"""Programs: ordered collections of top-level function definitions.

A program is a list of ``f_i(x_1, ..., x_n) = e_i`` definitions; the first
definition is the *goal* function ``f_1`` whose value is the meaning of the
program (Figure 1).  :meth:`Program.validate` enforces the well-formedness
assumptions the semantics take for granted: unique function names, no
parameter shadowing a function, every variable bound, every call resolving
to a known function with the right arity, every primitive known with the
right arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var, walk)
from repro.lang.errors import ValidationError
from repro.lang.primitives import PRIMITIVES


@dataclass(frozen=True)
class Program:
    """An immutable, validated-on-demand program."""

    defs: tuple[FunDef, ...]

    def __post_init__(self) -> None:
        if not self.defs:
            raise ValidationError("a program needs at least one definition")

    @staticmethod
    def of(defs: Iterable[FunDef]) -> "Program":
        return Program(tuple(defs))

    @property
    def main(self) -> FunDef:
        """The goal function ``f_1``."""
        return self.defs[0]

    def functions(self) -> dict[str, FunDef]:
        """Function environment as a name-keyed dict."""
        return {d.name: d for d in self.defs}

    def get(self, name: str) -> FunDef:
        for d in self.defs:
            if d.name == name:
                return d
        raise ValidationError(f"no function named {name!r}")

    def __iter__(self) -> Iterator[FunDef]:
        return iter(self.defs)

    def __len__(self) -> int:
        return len(self.defs)

    def size(self) -> int:
        """Total AST node count over all bodies."""
        from repro.lang.ast import expr_size
        return sum(expr_size(d.body) for d in self.defs)

    def validate(self, allow_higher_order: bool = True) -> None:
        """Check well-formedness; raises :class:`ValidationError`."""
        seen: set[str] = set()
        for d in self.defs:
            if d.name in seen:
                raise ValidationError(f"duplicate definition of {d.name!r}")
            if d.name in PRIMITIVES:
                raise ValidationError(
                    f"function {d.name!r} shadows a primitive")
            seen.add(d.name)
        functions = self.functions()
        for d in self.defs:
            if len(set(d.params)) != len(d.params):
                raise ValidationError(
                    f"{d.name}: duplicate parameter names {d.params}")
            _check_expr(d.body, set(d.params), functions,
                        allow_higher_order, where=d.name)

    def __str__(self) -> str:
        from repro.lang.pretty import pretty_program
        return pretty_program(self)


def _check_expr(expr: Expr, scope: set[str],
                functions: dict[str, FunDef],
                allow_higher_order: bool, where: str) -> None:
    if isinstance(expr, Const):
        return
    if isinstance(expr, Var):
        if expr.name not in scope:
            if expr.name in functions:
                if not allow_higher_order:
                    raise ValidationError(
                        f"{where}: first-class reference to function "
                        f"{expr.name!r} in a first-order program")
                return
            raise ValidationError(
                f"{where}: unbound variable {expr.name!r}")
        return
    if isinstance(expr, Prim):
        prim = PRIMITIVES.get(expr.op)
        if prim is None:
            raise ValidationError(f"{where}: unknown primitive {expr.op!r}")
        if prim.arity != len(expr.args):
            raise ValidationError(
                f"{where}: primitive {expr.op} expects {prim.arity} "
                f"arguments, got {len(expr.args)}")
        for arg in expr.args:
            _check_expr(arg, scope, functions, allow_higher_order, where)
        return
    if isinstance(expr, Call):
        target = functions.get(expr.fn)
        if target is None:
            raise ValidationError(
                f"{where}: call to unknown function {expr.fn!r}")
        if target.arity != len(expr.args):
            raise ValidationError(
                f"{where}: {expr.fn} expects {target.arity} arguments, "
                f"got {len(expr.args)}")
        for arg in expr.args:
            _check_expr(arg, scope, functions, allow_higher_order, where)
        return
    if isinstance(expr, If):
        for child in expr.children():
            _check_expr(child, scope, functions, allow_higher_order, where)
        return
    if isinstance(expr, Let):
        _check_expr(expr.bound, scope, functions, allow_higher_order, where)
        _check_expr(expr.body, scope | {expr.name}, functions,
                    allow_higher_order, where)
        return
    if isinstance(expr, Lam):
        if not allow_higher_order:
            raise ValidationError(
                f"{where}: lambda in a first-order program")
        if len(set(expr.params)) != len(expr.params):
            raise ValidationError(
                f"{where}: duplicate lambda parameters {expr.params}")
        _check_expr(expr.body, scope | set(expr.params), functions,
                    allow_higher_order, where)
        return
    if isinstance(expr, App):
        if not allow_higher_order:
            raise ValidationError(
                f"{where}: higher-order application in a first-order "
                f"program")
        for child in expr.children():
            _check_expr(child, scope, functions, allow_higher_order, where)
        return
    raise ValidationError(f"{where}: unknown expression node {expr!r}")


def is_first_order(program: Program) -> bool:
    """True if the program uses no lambda, application or first-class
    function references — the fragment Figures 1-4 are defined on."""
    functions = program.functions()
    for d in program.defs:
        bound = set(d.params)
        for node in walk(d.body):
            if isinstance(node, (Lam, App)):
                return False
            if isinstance(node, Let):
                bound.add(node.name)
        for node in walk(d.body):
            if isinstance(node, Var) and node.name in functions \
                    and node.name not in bound:
                return False
    return True
