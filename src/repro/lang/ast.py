"""Abstract syntax of the object language (Figure 1, extended).

The paper's first-order grammar is::

    e ::= c | x | p(e1, ..., en) | f(e1, ..., en) | if e1 e2 e3

We add two forms the paper uses informally: ``let`` (Figure 9's inner-product
program binds ``n`` with a let) and, for Section 5.5, ``lambda`` and general
application.  All nodes are immutable dataclasses; structural equality is the
equality of residual programs.

Expressions are ordinary trees — no sharing is assumed — and every traversal
helper here (:func:`free_vars`, :func:`substitute`, :func:`expr_size`, ...)
is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.lang.values import Value, format_value


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        """Immediate subexpressions, left to right."""
        raise NotImplementedError

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with new immediate subexpressions."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant ``c``; ``value`` is a concrete value."""

    value: Value

    def children(self) -> tuple[Expr, ...]:
        return ()

    def with_children(self, children: Sequence[Expr]) -> "Const":
        assert not children
        return self

    def __str__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference ``x``."""

    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def with_children(self, children: Sequence[Expr]) -> "Var":
        assert not children
        return self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Prim(Expr):
    """A primitive application ``p(e1, ..., en)``."""

    op: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> "Prim":
        return Prim(self.op, tuple(children))

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self)


@dataclass(frozen=True)
class Call(Expr):
    """A first-order call ``f(e1, ..., en)`` to a named function."""

    fn: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> "Call":
        return Call(self.fn, tuple(children))

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self)


@dataclass(frozen=True)
class If(Expr):
    """The strict conditional ``if e1 e2 e3``."""

    test: Expr
    then: Expr
    else_: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.test, self.then, self.else_)

    def with_children(self, children: Sequence[Expr]) -> "If":
        test, then, else_ = children
        return If(test, then, else_)

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self)


@dataclass(frozen=True)
class Let(Expr):
    """``let x = bound in body`` — strict, non-recursive, single binding.

    Multi-binding surface ``let`` forms are desugared to nested
    :class:`Let` nodes by the parser.
    """

    name: str
    bound: Expr
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.bound, self.body)

    def with_children(self, children: Sequence[Expr]) -> "Let":
        bound, body = children
        return Let(self.name, bound, body)

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self)


@dataclass(frozen=True)
class Lam(Expr):
    """An anonymous function ``lambda (x1 ... xn) e`` (Section 5.5)."""

    params: tuple[str, ...]
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)

    def with_children(self, children: Sequence[Expr]) -> "Lam":
        (body,) = children
        return Lam(self.params, body)

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self)


@dataclass(frozen=True)
class App(Expr):
    """A higher-order application ``e(e1, ..., en)`` (Section 5.5).

    The operator position is a general expression; first-order calls to
    named functions use :class:`Call` instead.
    """

    fn: Expr
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return (self.fn,) + self.args

    def with_children(self, children: Sequence[Expr]) -> "App":
        fn, *args = children
        return App(fn, tuple(args))

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self)


@dataclass(frozen=True)
class FunDef:
    """A top-level definition ``f(x1, ..., xn) = body``."""

    name: str
    params: tuple[str, ...]
    body: Expr

    @property
    def arity(self) -> int:
        return len(self.params)

    def __str__(self) -> str:
        from repro.lang.pretty import pretty_def
        return pretty_def(self)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------

def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all its subexpressions, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def expr_size(expr: Expr) -> int:
    """Number of AST nodes — the size measure used by the benchmarks."""
    return sum(1 for _ in walk(expr))


def free_vars(expr: Expr) -> frozenset[str]:
    """The free variables of ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Let):
        return free_vars(expr.bound) | (free_vars(expr.body)
                                        - frozenset((expr.name,)))
    if isinstance(expr, Lam):
        return free_vars(expr.body) - frozenset(expr.params)
    result: frozenset[str] = frozenset()
    for child in expr.children():
        result |= free_vars(child)
    return result


def called_functions(expr: Expr) -> frozenset[str]:
    """Names of all user functions called (via :class:`Call`) in ``expr``."""
    return frozenset(node.fn for node in walk(expr) if isinstance(node, Call))


def used_primitives(expr: Expr) -> frozenset[str]:
    """Names of all primitives applied in ``expr``."""
    return frozenset(node.op for node in walk(expr) if isinstance(node, Prim))


def count_occurrences(expr: Expr, name: str,
                      limit: int | None = None) -> int:
    """Number of *free* occurrences of variable ``name`` in ``expr``,
    or ``limit`` as soon as that many are found.

    Iterative (like :func:`walk`): the specializers run this on residual
    expressions whose nesting depth is bounded only by their budgets,
    far past Python's recursion limit.
    """
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.name == name:
                count += 1
                if count == limit:
                    return count
        elif isinstance(node, Let):
            stack.append(node.bound)
            if node.name != name:
                stack.append(node.body)
        elif isinstance(node, Lam):
            if name not in node.params:
                stack.append(node.body)
        else:
            stack.extend(node.children())
    return count


def substitute(expr: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Capture-avoiding parallel substitution of ``bindings`` in ``expr``.

    Binders that would capture a free variable of a substituted expression
    are renamed with :func:`fresh_name`.

    The free variables of each substituted expression are computed once
    per call, not once per binder crossed: the simplifier inlines large
    single-use ``let`` bounds into bodies holding thousands of binders.
    """
    return _substitute(expr, bindings, {})


def _substitute(expr: Expr, bindings: Mapping[str, Expr],
                fvs: dict[str, frozenset[str]]) -> Expr:
    """:func:`substitute`, with ``fvs`` memoizing ``free_vars`` of the
    binding values by name (every ``bindings`` below the top is a
    subset of the top one, so a name always maps to the same value)."""
    if not bindings:
        return expr
    if isinstance(expr, Var):
        return bindings.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Let):
        bound = _substitute(expr.bound, bindings, fvs)
        inner = {k: v for k, v in bindings.items() if k != expr.name}
        name = expr.name
        body = expr.body
        if inner and any(name in _value_fvs(k, v, fvs)
                         for k, v in inner.items()):
            name = fresh_name(name,
                              _substitution_avoid(expr.body, inner, fvs))
            body = substitute(body, {expr.name: Var(name)})
        return Let(name, bound, _substitute(body, inner, fvs))
    if isinstance(expr, Lam):
        inner = {k: v for k, v in bindings.items() if k not in expr.params}
        params = list(expr.params)
        body = expr.body
        if inner:
            avoid = _substitution_avoid(expr.body, inner, fvs)
            renames: dict[str, Expr] = {}
            for i, param in enumerate(params):
                if any(param in _value_fvs(k, v, fvs)
                       for k, v in inner.items()):
                    new = fresh_name(param, avoid)
                    avoid = avoid | {new}
                    renames[param] = Var(new)
                    params[i] = new
            if renames:
                body = substitute(body, renames)
        return Lam(tuple(params), _substitute(body, inner, fvs))
    return expr.with_children(
        [_substitute(child, bindings, fvs) for child in expr.children()])


def _value_fvs(name: str, value: Expr,
               fvs: dict[str, frozenset[str]]) -> frozenset[str]:
    found = fvs.get(name)
    if found is None:
        found = fvs[name] = free_vars(value)
    return found


def _substitution_avoid(body: Expr, bindings: Mapping[str, Expr],
                        fvs: dict[str, frozenset[str]]) -> set[str]:
    avoid = set(free_vars(body))
    for name, value in bindings.items():
        avoid |= _value_fvs(name, value, fvs)
    avoid |= set(bindings.keys())
    return avoid


def fresh_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    """A name derived from ``base`` that is not in ``avoid``."""
    if base not in avoid:
        return base
    index = 1
    while f"{base}_{index}" in avoid:
        index += 1
    return f"{base}_{index}"


def map_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node."""
    rebuilt = expr.with_children(
        [map_expr(child, fn) for child in expr.children()])
    return fn(rebuilt)


def alpha_equal(left: Expr, right: Expr) -> bool:
    """Alpha-equivalence (equality up to bound-variable names)."""
    return _alpha(left, right, {}, {})


def _alpha(left: Expr, right: Expr,
           lmap: dict[str, int], rmap: dict[str, int]) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, Const):
        from repro.lang.values import values_equal
        return values_equal(left.value, right.value)
    if isinstance(left, Var):
        assert isinstance(right, Var)
        if left.name in lmap or right.name in rmap:
            return lmap.get(left.name) == rmap.get(right.name)
        return left.name == right.name
    if isinstance(left, Let):
        assert isinstance(right, Let)
        if not _alpha(left.bound, right.bound, lmap, rmap):
            return False
        index = len(lmap) + len(rmap)
        return _alpha(left.body, right.body,
                      {**lmap, left.name: index},
                      {**rmap, right.name: index})
    if isinstance(left, Lam):
        assert isinstance(right, Lam)
        if len(left.params) != len(right.params):
            return False
        new_l, new_r = dict(lmap), dict(rmap)
        base = len(lmap) + len(rmap)
        for i, (lp, rp) in enumerate(zip(left.params, right.params)):
            new_l[lp] = new_r[rp] = base + i
        return _alpha(left.body, right.body, new_l, new_r)
    if isinstance(left, Prim) and left.op != right.op:  # type: ignore[union-attr]
        return False
    if isinstance(left, Call) and left.fn != right.fn:  # type: ignore[union-attr]
        return False
    lchildren, rchildren = left.children(), right.children()
    if len(lchildren) != len(rchildren):
        return False
    return all(_alpha(lc, rc, lmap, rmap)
               for lc, rc in zip(lchildren, rchildren))
