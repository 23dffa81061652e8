"""Lowering: residual ``lang.ast`` programs to Python source.

The translation is semantics-preserving by construction against the
standard semantics of Figure 1 (operationally:
:class:`repro.lang.interp.Interpreter`):

* **names** are mangled deterministically (``_f_`` for functions,
  ``_v_`` for variables) so any symbol the s-expression reader accepts
  (``f!6``, ``<=``, ``a-b``) becomes a valid, collision-free Python
  identifier;
* **let** becomes assignment, with fresh Python names for shadowing
  rebindings so an outer binding survives an inner ``let`` of the same
  source name;
* **first-order self tail recursion** becomes a ``while True`` loop
  (parallel parameter rebinding + ``continue``), and **mutual tail
  recursion** — detected as a strongly connected component of the
  tail-call graph — becomes a trampoline: group members return
  :class:`repro.backend.runtime.Bounce` markers their public wrappers
  keep bouncing, so ``step``/``dispatch`` style residuals run in
  constant Python stack;
* **lambda** becomes a nested ``def`` whose captured free variables
  are snapshotted through keyword-only default arguments (the loop
  conversion above rebinds parameters in place, so a late-bound Python
  cell would observe values the interpreter's environment-capturing
  closures never see); **application** goes through
  :func:`repro.backend.runtime.apply_value`, which reproduces the
  interpreter's arity and non-function error behaviour;
* **primitives** compile to direct calls of the checking
  implementations in :data:`repro.lang.primitives.PRIMITIVES` — the
  same ``K_p`` the interpreter applies, so values *and* errors agree;
* **constants** are hoisted into a module-level table, one ``_kN``
  entry per distinct literal text (so ``1``, ``1.0`` and ``True`` stay
  apart, and so do ``0.0`` and ``-0.0``), and function bodies refer to
  them by name: ``_t1 = _p_eq(_k0, _v_key)`` with ``_k0 = 15.0`` in
  the table.  Residuals of one program differ mostly in their
  literals, so they lower to one body text
  (:attr:`LoweredProgram.body`), which
  :func:`repro.backend.emit.compile_program` compiles once per
  process.  A body holds no literal at all, so a constant test
  lowers to ``if _k0 is True:`` rather than ``if 5 is True:``, which
  CPython would warn about;
* **conditionals** branch on ``is True`` / ``is False`` and route
  anything else to :func:`repro.backend.runtime.bad_test`, matching
  the interpreter's strict-Bool conditional;
* **invalid programs** (unbound variables, unknown functions, bad call
  arities) lower to code that raises the interpreter's exact
  :class:`~repro.lang.errors.EvalError` at the evaluation step that
  would have tripped it — never at import time — which is what the
  error-parity suite pins.

Expressions lower in a statement-oriented style: an expression either
renders as a Python expression or drains its ``let`` / ``if`` /
``lambda`` substructure into fresh ``_t`` temporaries first.  When a
later sibling in an argument list needs statements, already-rendered
earlier siblings are spilled to temporaries *above* those statements,
so evaluation stays exactly left-to-right strict even across the
statement/expression boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.lang.ast import (
    App, Call, Const, Expr, FunDef, If, Lam, Let, Prim, Var, free_vars)
from repro.lang.program import Program
from repro.lang.values import Vector

_INDENT = "    "

#: Friendly Python spellings for symbolic primitive names; anything
#: not listed keeps its (sanitized) own name.
_PRIM_FRIENDLY = {
    "+": "add", "-": "sub", "*": "mul", "/": "fdiv",
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le",
    ">": "gt", ">=": "ge", "and": "and_", "or": "or_", "not": "not_",
}

_SANITIZE = re.compile(r"[^0-9A-Za-z_]")
_ATOMIC = re.compile(r"^(?:[_A-Za-z][_A-Za-z0-9]*|-?[0-9][0-9_]*"
                     r"(?:\.[0-9]*)?(?:e[+-]?[0-9]+)?)$")


def prim_runtime_name(op: str) -> str:
    """The module-global name a primitive's implementation is bound to
    in emitted code (see :func:`repro.backend.runtime.runtime_globals`)."""
    return "_p_" + _PRIM_FRIENDLY.get(op, _SANITIZE.sub("_", op))


def _sanitize(name: str) -> str:
    text = _SANITIZE.sub("_", name)
    return text if text else "anon"


class _Names:
    """Deterministic, collision-free name allocation for one scope."""

    def __init__(self) -> None:
        self._by_source: dict[tuple[str, str], str] = {}
        self._taken: set[str] = set()

    def allocate(self, prefix: str, source: str) -> str:
        """A fresh Python name for ``source``; repeated requests for
        the same source name get fresh names too (``let`` shadowing
        wants a new binding, not the old one)."""
        base = f"{prefix}{_sanitize(source)}"
        candidate = base
        index = 1
        while candidate in self._taken:
            index += 1
            candidate = f"{base}_{index}"
        self._taken.add(candidate)
        return candidate

    def lookup_or_allocate(self, prefix: str, source: str) -> str:
        """A stable Python name for ``source`` (functions: every call
        site must agree on the spelling)."""
        key = (prefix, source)
        name = self._by_source.get(key)
        if name is None:
            name = self.allocate(prefix, source)
            self._by_source[key] = name
        return name


# ---------------------------------------------------------------------------
# Tail-call analysis
# ---------------------------------------------------------------------------

def _tail_calls(expr: Expr) -> frozenset[str]:
    """Names of functions called (via :class:`Call`) in tail position
    of ``expr``.  Lambda bodies are separate functions, so they do not
    contribute tail positions of the enclosing definition."""
    if isinstance(expr, Call):
        return frozenset((expr.fn,))
    if isinstance(expr, If):
        return _tail_calls(expr.then) | _tail_calls(expr.else_)
    if isinstance(expr, Let):
        return _tail_calls(expr.body)
    return frozenset()


def _tail_sccs(program: Program) -> list[frozenset[str]]:
    """Strongly connected components of the tail-call graph, via an
    iterative Tarjan (polyvariant residuals can define many variants)."""
    defined = {d.name for d in program.defs}
    edges = {d.name: sorted(_tail_calls(d.body) & defined)
             for d in program.defs}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset[str]] = []
    counter = 0
    for root in edges:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for position in range(child, len(edges[node])):
                successor = edges[node][position]
                if successor not in index:
                    work[-1] = (node, position + 1)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(frozenset(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


# ---------------------------------------------------------------------------
# Per-function lowering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FnCtx:
    """Tail-position compilation context of one definition."""

    name: str
    params: tuple[str, ...]     # Python parameter names, in order
    loop: bool                  # self tail calls become continue
    group: frozenset[str]       # trampolined SCC members (may be empty)
    impl_names: dict[str, str]  # SCC member -> impl function name


@dataclass
class LoweredProgram:
    """The result of lowering: Python source plus the entry map."""

    source: str
    #: Source function name -> (public Python name, arity).
    entries: dict[str, tuple[str, int]]
    goal: str
    #: The tail of ``source`` that holds the definitions; what comes
    #: before it is the header and the constant table.  Empty for a
    #: module read back from an artifact, which is compiled whole.
    body: str = ""

    @property
    def table(self) -> str:
        """The header and the constant table: ``source`` less ``body``
        (so all of ``source`` when ``body`` is empty)."""
        return self.source[:len(self.source) - len(self.body)]


class _Lowerer:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.functions = program.functions()
        self.module_names = _Names()
        self.lines: list[str] = []
        #: Literal text -> table name, in order of first use.
        self.constants: dict[str, str] = {}
        self._temp = 0
        self._lam = 0
        self._locals: _Names | None = None

    # -- small helpers -------------------------------------------------
    def emit(self, indent: int, text: str) -> None:
        self.lines.append(f"{_INDENT * indent}{text}")

    def fresh_temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def fresh_lam(self) -> str:
        self._lam += 1
        return f"_lam{self._lam}"

    def fn_name(self, source: str) -> str:
        return self.module_names.lookup_or_allocate("_f_", source)

    def impl_name(self, source: str) -> str:
        return self.module_names.lookup_or_allocate("_i_", source)

    def local(self, source: str) -> str:
        assert self._locals is not None
        return self._locals.allocate("_v_", source)

    # -- program -------------------------------------------------------
    def lower(self) -> LoweredProgram:
        groups = {scc: {member: self.impl_name(member) for member in scc}
                  for scc in _tail_sccs(self.program) if len(scc) > 1}
        group_of: dict[str, tuple[frozenset[str], dict[str, str]]] = {}
        for scc, impls in groups.items():
            for member in scc:
                group_of[member] = (scc, impls)

        main = self.program.main
        entries: dict[str, tuple[str, int]] = {}
        for fundef in self.program.defs:
            self.emit(0, "")
            self.emit(0, "")
            public = self.fn_name(fundef.name)
            entries[fundef.name] = (public, fundef.arity)
            group, impls = group_of.get(fundef.name, (frozenset(), {}))
            self._lower_fundef(fundef, public, group, impls)
        table = [
            "# Python residual emitted by repro.backend "
            "(PPE compiled backend).",
            f"# goal: {main.name}/{main.arity}",
            *(f"{name} = {text}" for text, name in self.constants.items())]
        body = "\n".join(self.lines) + "\n"
        return LoweredProgram(source="\n".join(table) + "\n" + body,
                              entries=entries, goal=main.name, body=body)

    def _lower_fundef(self, fundef: FunDef, public: str,
                      group: frozenset[str],
                      impls: dict[str, str]) -> None:
        self._locals = _Names()
        self._temp = 0
        params = tuple(self.local(p) for p in fundef.params)
        env = dict(zip(fundef.params, params))
        loop = fundef.name in _tail_calls(fundef.body)
        ctx = _FnCtx(name=fundef.name, params=params, loop=loop,
                     group=group, impl_names=impls)

        body_name = impls.get(fundef.name, public)
        self.emit(0, f"def {body_name}({', '.join(params)}):")
        indent = 1
        if loop:
            self.emit(indent, "while True:")
            indent += 1
        self.tail(fundef.body, env, ctx, indent)

        if fundef.name in impls:
            # The public wrapper: drive the mutual-tail-call
            # trampoline until a non-Bounce value comes back.
            self.emit(0, "")
            self.emit(0, "")
            self.emit(0, f"def {public}({', '.join(params)}):")
            self.emit(1, f"_r = {body_name}({', '.join(params)})")
            self.emit(1, "while _r.__class__ is _rt_Bounce:")
            self.emit(2, "_r = _r.fn(*_r.args)")
            self.emit(1, "return _r")
        self._locals = None

    # -- expressions ---------------------------------------------------
    def expr(self, e: Expr, env: dict[str, str], indent: int) -> str:
        """Render ``e`` as a Python expression, draining any ``let`` /
        ``if`` substructure into statements first."""
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, Var):
            name = env.get(e.name)
            if name is not None:
                return name
            target = self.functions.get(e.name)
            if target is not None:
                # A first-class reference to a top-level function
                # (the interpreter's FunRef).
                return (f"_rt_close({self.fn_name(e.name)}, "
                        f"{target.arity}, {e.name!r})")
            return f"_rt_unbound({e.name!r})"
        if isinstance(e, Prim):
            args = self.expr_seq(e.args, env, indent)
            return f"{prim_runtime_name(e.op)}({', '.join(args)})"
        if isinstance(e, Call):
            return self.call_expr(e, env, indent)
        if isinstance(e, App):
            fn, *args = self.expr_seq([e.fn, *e.args], env, indent)
            joined = ", ".join(args)
            comma = "," if len(args) == 1 else ""
            return f"_rt_apply({fn}, ({joined}{comma}))"
        if isinstance(e, Lam):
            return self.lam_expr(e, env, indent)
        # Let / If: drain into a temporary.
        target = self.fresh_temp()
        self.assign(e, env, target, indent)
        return target

    def expr_seq(self, exprs: list[Expr], env: dict[str, str],
                 indent: int) -> list[str]:
        """Render a left-to-right argument list.

        If lowering a later sibling emits statements (it contained a
        ``let`` or ``if``), earlier siblings whose rendering is not an
        atomic load are spilled to temporaries inserted *above* those
        statements — otherwise Python would evaluate them after the
        sibling's statements, breaking strict left-to-right error
        order.
        """
        rendered: list[str] = []
        for e in exprs:
            mark = len(self.lines)
            text = self.expr(e, env, indent)
            if len(self.lines) > mark:
                spills: list[str] = []
                for i, prev in enumerate(rendered):
                    if not _ATOMIC.match(prev):
                        temp = self.fresh_temp()
                        spills.append(f"{_INDENT * indent}{temp} = {prev}")
                        rendered[i] = temp
                self.lines[mark:mark] = spills
            rendered.append(text)
        return rendered

    def call_expr(self, e: Call, env: dict[str, str],
                  indent: int) -> str:
        target = self.functions.get(e.fn)
        args = self.expr_seq(e.args, env, indent)
        joined = ", ".join(args)
        if target is None or target.arity != len(e.args):
            # Invalid call: evaluate the arguments first (the
            # interpreter does), then raise its exact error.
            if args:
                comma = "," if len(args) == 1 else ""
                self.emit(indent,
                          f"{self.fresh_temp()} = ({joined}{comma})")
            if target is None:
                return f"_rt_unknown_fn({e.fn!r})"
            return f"_rt_bad_call({e.fn!r}, {target.arity}, {len(e.args)})"
        return f"{self.fn_name(e.fn)}({joined})"

    def lam_expr(self, e: Lam, env: dict[str, str],
                 indent: int) -> str:
        """A nested ``def`` with keyword-only default snapshots of the
        captured environment (see the module docstring on why a plain
        Python closure cell would be wrong under loop conversion)."""
        name = self.fresh_lam()
        captured = sorted(n for n in free_vars(e) if n in env)
        saved = self._locals
        self._locals = _Names()
        try:
            cap_names = {n: self._locals.allocate("_c_", n)
                         for n in captured}
            params = [self.local(p) for p in e.params]
            scope = dict(cap_names)
            scope.update(zip(e.params, params))
            signature = ", ".join(params)
            if captured:
                snapshots = ", ".join(f"{cap_names[n]}={env[n]}"
                                      for n in captured)
                star = f"{signature}, *, " if signature else "*, "
                signature = star + snapshots
            self.emit(indent, f"def {name}({signature}):")
            ctx = _FnCtx(name="<lambda>", params=tuple(params),
                         loop=False, group=frozenset(), impl_names={})
            self.tail(e.body, scope, ctx, indent + 1)
        finally:
            self._locals = saved
        return f"_rt_close({name}, {len(e.params)})"

    def const(self, value: object) -> str:
        """The table name of a constant: one entry per distinct
        literal text, so ``1``, ``1.0`` and ``True`` stay apart, and so
        do ``0.0`` and ``-0.0``."""
        text = _literal(value)
        name = self.constants.get(text)
        if name is None:
            name = self.constants[text] = f"_k{len(self.constants)}"
        return name

    # -- statements ----------------------------------------------------
    def assign(self, e: Expr, env: dict[str, str], target: str,
               indent: int) -> None:
        """Emit statements computing ``e`` into ``target``."""
        if isinstance(e, If):
            test = self.test_temp(e, env, indent)
            self.emit(indent, f"if {test} is True:")
            self.assign(e.then, env, target, indent + 1)
            self.emit(indent, f"elif {test} is False:")
            self.assign(e.else_, env, target, indent + 1)
            self.emit(indent, "else:")
            self.emit(indent + 1, f"_rt_bad_test({test})")
            return
        if isinstance(e, Let):
            inner = self.let_bind(e, env, indent)
            self.assign(e.body, inner, target, indent)
            return
        self.emit(indent, f"{target} = {self.expr(e, env, indent)}")

    def tail(self, e: Expr, env: dict[str, str], ctx: _FnCtx,
             indent: int) -> None:
        """Emit statements for ``e`` in tail position: every path ends
        in ``return``, ``continue`` (self tail call) or a trampoline
        bounce (mutual tail call)."""
        if isinstance(e, If):
            test = self.test_temp(e, env, indent)
            self.emit(indent, f"if {test} is True:")
            self.tail(e.then, env, ctx, indent + 1)
            self.emit(indent, f"elif {test} is False:")
            self.tail(e.else_, env, ctx, indent + 1)
            self.emit(indent, "else:")
            self.emit(indent + 1, f"_rt_bad_test({test})")
            return
        if isinstance(e, Let):
            inner = self.let_bind(e, env, indent)
            self.tail(e.body, inner, ctx, indent)
            return
        if isinstance(e, Call):
            target = self.functions.get(e.fn)
            if target is not None and target.arity == len(e.args):
                if e.fn == ctx.name and ctx.loop:
                    args = self.expr_seq(e.args, env, indent)
                    if args:
                        self.emit(indent,
                                  f"{', '.join(ctx.params)} = "
                                  f"{', '.join(args)}")
                    self.emit(indent, "continue")
                    return
                if e.fn in ctx.group:
                    args = self.expr_seq(e.args, env, indent)
                    joined = ", ".join(args)
                    comma = "," if len(args) == 1 else ""
                    self.emit(indent,
                              f"return _rt_Bounce({ctx.impl_names[e.fn]}, "
                              f"({joined}{comma}))")
                    return
        self.emit(indent, f"return {self.expr(e, env, indent)}")

    def test_temp(self, e: If, env: dict[str, str],
                  indent: int) -> str:
        """The scrutinee, pinned to a name so the ``is True`` /
        ``is False`` pair evaluates it exactly once."""
        rendered = self.expr(e.test, env, indent)
        if _ATOMIC.match(rendered):
            return rendered
        temp = self.fresh_temp()
        self.emit(indent, f"{temp} = {rendered}")
        return temp

    def let_bind(self, e: Let, env: dict[str, str],
                 indent: int) -> dict[str, str]:
        pyname = self.local(e.name)
        self.assign(e.bound, env, pyname, indent)
        inner = dict(env)
        inner[e.name] = pyname
        return inner


def _literal(value: object) -> str:
    """The Python text of a constant."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return _float_literal(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, Vector):
        items = ", ".join("None" if item is None
                          else _float_literal(item)
                          for item in value.items)
        comma = "," if len(value.items) == 1 else ""
        return f"_rt_vec(({items}{comma}))"
    raise TypeError(f"cannot lower constant {value!r}")


def _float_literal(value: float) -> str:
    """A float literal valid in a namespace with no builtins (the
    specializer can constant-fold an overflow into ``inf``)."""
    if value != value:
        return "_rt_nan"
    if value == math.inf:
        return "_rt_inf"
    if value == -math.inf:
        return "(-_rt_inf)"
    return repr(value)


def lower_program(program: Program) -> LoweredProgram:
    """Lower a whole program to Python source plus its entry map."""
    return _Lowerer(program).lower()
