"""Pretty-printer producing surface syntax that re-parses to the same AST.

``parse_program(pretty_program(p))`` is the identity on validated
first-order and higher-order programs (modulo ``let`` re-nesting, which is
syntactically identical), a property the round-trip tests check.  Vector
constants are the exception: a residual that keeps a static vector prints
it as ``#(...)``, which :mod:`repro.lang.parser` cannot read back.

Printing is linear in the size of the tree and uses no host-stack
recursion, so residuals nested thousands of levels deep print too: each
node's one-line text (or, once that is longer than a line, its length)
is computed once, bottom-up; the layout decides from those alone, and
the output is assembled from fragments joined once.
"""

from __future__ import annotations

from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var)
from repro.lang.program import Program
from repro.lang.values import format_value

_INDENT = "  "

#: The longest text :func:`pretty` builds for one node; a longer node
#: is assembled from its parts' texts.
_LINE = 72


def pretty(expr: Expr) -> str:
    """Render an expression on one line."""
    out: list[str] = []
    _emit(expr, 0, _LINE, _flat_table(expr, _LINE), out, breaking=False)
    return "".join(out)


def pretty_indented(expr: Expr, width: int = 72) -> str:
    """Render an expression over multiple lines when it would overflow
    ``width`` columns."""
    out: list[str] = []
    _emit(expr, 0, width, _flat_table(expr, width), out)
    return "".join(out)


def pretty_def(fundef: FunDef, width: int = 72) -> str:
    """Render one top-level definition."""
    out: list[str] = []
    _emit_def(fundef, width, out)
    return "".join(out)


def pretty_program(program: Program, width: int = 72) -> str:
    """Render a whole program, one definition per paragraph."""
    out: list[str] = []
    for index, fundef in enumerate(program.defs):
        if index:
            out.append("\n\n")
        _emit_def(fundef, width, out)
    out.append("\n")
    return "".join(out)


def _emit_def(fundef: FunDef, width: int, out: list[str]) -> None:
    header = " ".join((fundef.name,) + fundef.params)
    table = _flat_table(fundef.body, width)
    body = table[id(fundef.body)]
    flat = f"(define ({header}) {body})" if isinstance(body, str) \
        else None
    if flat is not None and len(flat) <= width:
        out.append(flat)
        return
    out.append(f"(define ({header})\n{_INDENT}")
    _emit(fundef.body, 1, width, table, out)
    out.append(")")


def _text(node: Expr, parts: list[str]) -> str:
    """A node's one-line text from its children's, in ``children()``
    order."""
    kind = type(node)
    if kind is If:
        test, then, else_ = parts
        return f"(if {test} {then} {else_})"
    if kind is Let:
        bound, body = parts
        return f"(let (({node.name} {bound})) {body})"
    if kind is Lam:
        return f"(lambda ({' '.join(node.params)}) {parts[0]})"
    if kind is App:
        head, *parts = parts
    else:
        head = node.op if kind is Prim else node.fn
    return f"({head} {' '.join(parts)})" if parts else f"({head})"


def _leaf_text(node: Expr) -> str:
    if type(node) is Const:
        return format_value(node.value)
    return node.name


#: Node types with children.
_INNER = (Prim, Call, If, Let, Lam, App)


def _flat_table(root: Expr, width: int) -> dict[int, str | int]:
    """``id(node)`` -> the node's one-line text when it is at most
    ``width`` long, else that text's length, for every node under
    ``root``.  Computed bottom-up with an explicit stack, each node
    once, and no text longer than ``width`` is ever built."""
    table: dict[int, str | int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in table:
            stack.pop()
            continue
        kind = type(node)
        if kind is Const or kind is Var:
            text = _leaf_text(node)
        elif kind in _INNER:
            children = node.children()
            pending = [child for child in children
                       if id(child) not in table]
            if pending:
                stack.extend(pending)
                continue
            parts = [table[id(child)] for child in children]
            if all(type(part) is str for part in parts):
                text = _text(node, parts)
            else:
                # Too long already: the node's own characters plus
                # its children's.
                stack.pop()
                table[id(node)] = len(_text(node, [""] * len(parts))) \
                    + sum(len(part) if type(part) is str else part
                          for part in parts)
                continue
        else:
            raise TypeError(f"not an expression: {node!r}")
        stack.pop()
        table[id(node)] = text if len(text) <= width else len(text)
    return table


def _emit(root: Expr, depth: int, width: int,
          table: dict[int, str | int], out: list[str],
          breaking: bool = True) -> None:
    """Append ``root``'s rendering at nesting ``depth`` to ``out``.  A
    node whose one-line text fits in ``width`` after its indentation
    is that text; any other opens a line before each operand, one
    level deeper, or — not ``breaking`` — a space, which renders it on
    one line from its parts."""
    stack: list[tuple[Expr, int] | str] = [(root, depth)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, depth = item
        flat = table[id(node)]
        if type(flat) is str and (
                not breaking or len(flat) + depth * len(_INDENT) <= width):
            out.append(flat)
            continue
        pad = "\n" + _INDENT * (depth + 1) if breaking else " "
        inner = depth + 1
        kind = type(node)
        if kind is If:
            out.append("(if ")
            stack.extend((")", (node.else_, inner), pad,
                          (node.then, inner), pad, (node.test, inner)))
        elif kind is Let:
            out.append(f"(let (({node.name} ")
            stack.extend((")", (node.body, inner), "))" + pad,
                          (node.bound, depth + 2)))
        elif kind is Lam:
            out.append(f"(lambda ({' '.join(node.params)})" + pad)
            stack.extend((")", (node.body, inner)))
        elif kind in (Prim, Call, App):
            out.append("(" if kind is App
                       else "(" + (node.op if kind is Prim else node.fn))
            stack.append(")")
            for arg in reversed(node.args):
                stack.append((arg, inner))
                stack.append(pad)
            if kind is App:
                stack.append((node.fn, inner))
        else:
            # A constant or variable longer than the line.
            out.append(_leaf_text(node))
