"""Algebraic post-simplification of residual programs.

Figure 8 of the paper shows the inner-product residual *without* the
trailing ``+ 0.0`` that plain unfolding of ``dotProd(A, B, 0)`` leaves
behind; Redfun-class systems perform such algebraic cleanups.  The
Figure 3 semantics does not include them, so we implement them as an
explicit, optional pass (see DESIGN.md, Substitutions).

Soundness discipline: a rewrite may delete a subexpression only when the
subexpression is *definitely total* — guaranteed to evaluate without an
error — because this language's only effect is failure (division by
zero, bad vector access).  ``definitely_total`` is a conservative
syntactic check.

Float identities (``x + 0.0 -> x``, ``x * 1.0 -> x``) are technically
wrong at ``-0.0`` and NaN; the object language cannot construct NaN and
the PE literature applies them regardless (Figure 8's residual depends
on them), so the pass applies them too.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.lang.ast import (
    Const, Expr, If, Lam, Let, Prim, Var, alpha_equal, count_occurrences,
    substitute)
from repro.lang.errors import EvalError
from repro.lang.primitives import apply_primitive, fold_would_blow_up
from repro.lang.program import Program
from repro.lang.values import values_equal
from repro.transform.cleanup import canonical_names, drop_unreachable

if TYPE_CHECKING:
    from repro.observability.stats import PEStats
    from repro.online.config import PEConfig

#: Primitives that cannot raise for any type-correct arguments.
_TOTAL_PRIMS = frozenset((
    "+", "-", "*", "neg", "abs", "min", "max",
    "=", "!=", "<", "<=", ">", ">=",
    "and", "or", "not", "itof", "vsize",
))


#: Bottom-up passes :func:`simplify_expr` runs at most before it stops
#: short of a fixpoint.
MAX_PASSES = 8


def definitely_total(expr: Expr) -> bool:
    """Conservative: True only when evaluating ``expr`` cannot fail.

    Requires every primitive on the path to be total *and* the
    expression to be closed under variables/constants — function calls
    and applications may diverge or fail, so they are never total.
    """
    if isinstance(expr, (Const, Var)):
        return True
    if isinstance(expr, Prim):
        return expr.op in _TOTAL_PRIMS and all(
            definitely_total(a) for a in expr.args)
    if isinstance(expr, If):
        return all(definitely_total(c) for c in expr.children())
    if isinstance(expr, Let):
        return definitely_total(expr.bound) \
            and definitely_total(expr.body)
    if isinstance(expr, Lam):
        # Building a closure never fails (calling it might).
        return True
    return False


def simplify_expr(expr: Expr) -> Expr:
    """Bottom-up rewriting to a fixpoint, or :data:`MAX_PASSES`
    passes."""
    for _ in range(MAX_PASSES):
        rewritten = _simplify(expr)
        if rewritten == expr:
            return rewritten
        expr = rewritten
    return expr


def simplify_program(program: Program) -> Program:
    """Simplify every body; callers may follow with dead-function
    elimination (:func:`repro.transform.cleanup.drop_unreachable`)."""
    defs = [d.__class__(d.name, d.params, simplify_expr(d.body))
            for d in program.defs]
    return Program(tuple(defs))


def finish_residual(program: Program, config: PEConfig,
                    stats: PEStats) -> Program:
    """The post-processing tail every engine runs on its raw residual:
    :func:`simplify_program` when ``config.simplify``, then
    dead-function elimination and canonical renaming when
    ``config.tidy``.  Its time is the ``simplify`` phase of
    ``stats``."""
    started = perf_counter()
    if config.simplify:
        program = simplify_program(program)
    if config.tidy:
        program = canonical_names(drop_unreachable(program))
    stats.record_phase("simplify", perf_counter() - started)
    return program


def _simplify(expr: Expr) -> Expr:
    rebuilt = expr.with_children(
        [_simplify(child) for child in expr.children()])
    return _rewrite(rebuilt)


def _rewrite(expr: Expr) -> Expr:
    if isinstance(expr, Prim):
        return _rewrite_prim(expr)
    if isinstance(expr, If):
        return _rewrite_if(expr)
    if isinstance(expr, Let):
        return _rewrite_let(expr)
    return expr


def _const(expr: Expr, value) -> bool:
    return isinstance(expr, Const) and not isinstance(expr.value, bool) \
        and isinstance(expr.value, type(value)) \
        and values_equal(expr.value, value)


def _rewrite_prim(expr: Prim) -> Expr:
    args = expr.args
    if all(isinstance(a, Const) for a in args):
        values = [a.value for a in args]  # type: ignore[union-attr]
        if fold_would_blow_up(expr.op, values):
            return expr
        try:
            return Const(apply_primitive(expr.op, values))
        except EvalError:
            return expr

    if len(args) != 2:
        return expr
    left, right = args
    if expr.op == "+":
        if _const(left, 0) or _const(left, 0.0):
            return right
        if _const(right, 0) or _const(right, 0.0):
            return left
    if expr.op == "-":
        if _const(right, 0) or _const(right, 0.0):
            return left
    if expr.op == "*":
        if _const(left, 1) or _const(left, 1.0):
            return right
        if _const(right, 1) or _const(right, 1.0):
            return left
        # x * 0 -> 0 only when x surely terminates without error.
        if _const(left, 0) and definitely_total(right):
            return left
        if _const(right, 0) and definitely_total(left):
            return right
    if expr.op == "div" and _const(right, 1):
        return left
    return expr


def _rewrite_if(expr: If) -> Expr:
    if isinstance(expr.test, Const) and isinstance(expr.test.value, bool):
        return expr.then if expr.test.value else expr.else_
    if alpha_equal(expr.then, expr.else_) and definitely_total(expr.test):
        return expr.then
    if isinstance(expr.test, Prim) and expr.test.op == "not":
        return If(expr.test.args[0], expr.else_, expr.then)
    return expr


def _rewrite_let(expr: Let) -> Expr:
    occurrences = count_occurrences(expr.body, expr.name, limit=2)
    if occurrences == 0 and definitely_total(expr.bound):
        return expr.body
    if isinstance(expr.bound, (Const, Var)) or occurrences == 1:
        return substitute(expr.body, {expr.name: expr.bound})
    return expr
