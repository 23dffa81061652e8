"""Residual-program cleanups that work at whole-program granularity.

* :func:`drop_unreachable` — remove specialized functions the goal can
  no longer reach (unfolding often strands cache entries);
* :func:`rename_functions` — give residual functions stable, readable
  names (``dotprod_1`` style) in first-use order, so pretty-printed
  residual programs are deterministic across runs.
"""

from __future__ import annotations

from typing import Mapping

from repro.lang.ast import Call, Expr, FunDef, Var, map_expr, walk
from repro.lang.program import Program


def drop_unreachable(program: Program) -> Program:
    """Keep only definitions reachable from the goal function."""
    functions = program.functions()
    reachable: set[str] = set()
    frontier = [program.main.name]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        fundef = functions.get(name)
        if fundef is None:
            continue
        for node in walk(fundef.body):
            if isinstance(node, Call) and node.fn not in reachable:
                frontier.append(node.fn)
            if isinstance(node, Var) and node.name in functions \
                    and node.name not in reachable:
                frontier.append(node.name)
    return Program(tuple(d for d in program.defs if d.name in reachable))


def rename_functions(program: Program,
                     renames: Mapping[str, str]) -> Program:
    """Apply a name substitution to definitions and call sites."""
    if not renames:
        return program

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Call) and expr.fn in renames:
            return Call(renames[expr.fn], expr.args)
        if isinstance(expr, Var) and expr.name in renames:
            return Var(renames[expr.name])
        return expr

    defs = []
    for d in program.defs:
        defs.append(FunDef(renames.get(d.name, d.name), d.params,
                           map_expr(d.body, rewrite)))
    return Program(tuple(defs))


def canonical_names(program: Program) -> Program:
    """Rename ``name!k``-style generated functions to ``name_1, ...`` in
    definition order, keeping the goal function's name intact."""
    renames: dict[str, str] = {}
    counters: dict[str, int] = {}
    taken = {d.name for d in program.defs}
    for d in program.defs[1:]:
        base = d.name.split("!", 1)[0]
        if d.name == base:
            continue
        counters[base] = counters.get(base, 0) + 1
        candidate = f"{base}_{counters[base]}"
        while candidate in taken:
            counters[base] += 1
            candidate = f"{base}_{counters[base]}"
        taken.add(candidate)
        renames[d.name] = candidate
    return rename_functions(program, renames)

