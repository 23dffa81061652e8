"""Runtime bridge between emitted Python and the object language.

Emitted code never touches Python's own semantics for anything the
object language defines: every primitive application goes through the
checking implementations of :mod:`repro.lang.primitives` (the same
``K_p`` the interpreter applies), conditionals go through
:func:`bad_test` when the scrutinee is not a boolean, and higher-order
application goes through :func:`apply_value`.  That is what keeps the
compiled semantics — *including the error semantics* — aligned with
:class:`repro.lang.interp.Interpreter`: division by zero, bad vector
accesses, wrong-arity closure application and unbound variables raise
the same :class:`~repro.engine.errors.ReproError` subclass from both
engines (pinned by ``tests/backend/test_error_parity.py``).

:func:`runtime_globals` builds the module namespace emitted code runs
in; the names it binds are the only free names
:mod:`repro.backend.lower` ever emits.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from repro.lang.errors import EvalError
from repro.lang.primitives import PRIMITIVES, Primitive
from repro.lang.values import Vector, sort_of


class CompiledClosure:
    """A compiled functional value: a Python callable plus the arity
    and error-reporting name the interpreter's :class:`Closure` /
    :class:`FunRef` semantics need."""

    __slots__ = ("fn", "arity", "name")

    def __init__(self, fn: Callable, arity: int,
                 name: str | None = None) -> None:
        self.fn = fn
        self.arity = arity
        self.name = name

    def __str__(self) -> str:
        if self.name is not None:
            return f"<function {self.name}>"
        return f"<closure/{self.arity}>"

    __repr__ = __str__


class Bounce:
    """Trampoline marker for mutual tail calls.

    A function in a mutually tail-recursive group returns
    ``Bounce(impl, args)`` instead of calling its sibling, and the
    group's public wrappers keep bouncing until a real value comes
    back — mutual tail recursion in constant Python stack, the moral
    equivalent of the self-recursive ``while`` loops.  Object-language
    values are never :class:`Bounce` instances, so the ``type(r) is
    Bounce`` test in emitted wrappers cannot misfire.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn = fn
        self.args = args


def close(fn: Callable, arity: int,
          name: str | None = None) -> CompiledClosure:
    """Wrap a compiled function body as an object-language closure."""
    return CompiledClosure(fn, arity, name)


def apply_value(fn: object, args: tuple) -> object:
    """The ``App`` semantics: apply a functional value, with the
    interpreter's exact arity/type error behaviour."""
    if type(fn) is CompiledClosure:
        if len(args) != fn.arity:
            if fn.name is not None:
                raise EvalError(
                    f"{fn.name}: expected {fn.arity} arguments, "
                    f"got {len(args)}")
            raise EvalError(
                f"closure expects {fn.arity} arguments, "
                f"got {len(args)}")
        return fn.fn(*args)
    raise EvalError(f"cannot apply non-function {fn!r}")


def bad_test(value: object) -> None:
    """An ``if`` scrutinee that is not a boolean (Figure 1 makes the
    conditional strict in a Bool)."""
    raise EvalError("if: test did not produce a boolean")


def unbound(name: str) -> None:
    """An unbound variable reference, reported at the evaluation step
    that touches it — exactly when the interpreter would."""
    raise EvalError(f"unbound variable {name!r}")


def unknown_function(name: str) -> None:
    """A call to a function the program does not define."""
    raise EvalError(f"call to unknown function {name!r}")


def bad_call(name: str, want: int, got: int) -> None:
    """A first-order call with the wrong argument count (only
    reachable from unvalidated programs, like the interpreter's own
    arity check)."""
    raise EvalError(f"{name}: expected {want} arguments, got {got}")


def vector(items: Sequence[object]) -> Vector:
    """Rebuild a vector constant."""
    return Vector(tuple(items))


#: Concrete Python type(s) carrying each object-language sort.
_SORT_TYPES = {"int": int, "float": float, "bool": bool,
               "vector": Vector}


def checked_primitive(prim: Primitive) -> Callable:
    """``K_p`` as a standalone callable: the exact semantics of
    :func:`repro.lang.primitives.apply_primitive` — arity check,
    overload resolution over value sorts, then the implementation —
    with the registry lookup and the per-call signature scan hoisted
    out.  The hot path is one precomputed set lookup on the argument
    *type* tuple; everything else (wrong arity, exotic value
    subclasses, the error messages) takes the slow path below."""
    fn = prim.fn
    name = prim.name
    arity = prim.arity
    accepted_types = frozenset(
        tuple(_SORT_TYPES[sort] for sort in sig.arg_sorts)
        for sig in prim.sigs)
    accepted_sorts = frozenset(sig.arg_sorts for sig in prim.sigs)

    def slow_call(args: tuple) -> object:
        if len(args) != arity:
            raise EvalError(
                f"{name}: expected {arity} arguments, got {len(args)}")
        sorts = []
        for arg in args:
            if isinstance(arg, (bool, int, float, Vector)):
                sorts.append(sort_of(arg))
            else:
                # Matches the interpreter's is_value() guard on
                # primitive arguments.
                raise EvalError(
                    f"{name}: functional value passed to a primitive")
        if tuple(sorts) not in accepted_sorts:
            raise EvalError(f"{name}: no overload for argument sorts "
                            f"({', '.join(sorts)})")
        return fn(*args)

    def call(*args: object) -> object:
        if tuple(map(type, args)) in accepted_types:
            return fn(*args)
        return slow_call(args)

    return call


@functools.cache
def _primitive_bindings() -> dict[str, Callable]:
    """The :func:`checked_primitive` wrapper of every primitive, by
    runtime name.  The wrappers are stateless, so one set per process
    serves every compiled unit."""
    from repro.backend.lower import prim_runtime_name
    return {prim_runtime_name(name): checked_primitive(primitive)
            for name, primitive in PRIMITIVES.items()}


def runtime_globals() -> dict:
    """A fresh namespace for one emitted module to execute in.

    Primitive implementations are bound as :func:`checked_primitive`
    wrappers over :data:`repro.lang.primitives.PRIMITIVES` — one
    global load and one call per application, no registry lookup and a
    set-membership overload check, yet byte-for-byte the same value
    and error semantics as ``apply_primitive``.
    """
    namespace: dict[str, object] = {
        "__builtins__": {},
        "_rt_close": close,
        "_rt_apply": apply_value,
        "_rt_bad_test": bad_test,
        "_rt_unbound": unbound,
        "_rt_unknown_fn": unknown_function,
        "_rt_bad_call": bad_call,
        "_rt_vec": vector,
        "_rt_Bounce": Bounce,
        # Non-finite float literals have no spelling in a namespace
        # with no builtins; the lowerer emits these names instead.
        "_rt_inf": math.inf,
        "_rt_nan": math.nan,
    }
    namespace.update(_primitive_bindings())
    return namespace
