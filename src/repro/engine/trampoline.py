"""A generator trampoline for the specializers' deep recursion.

``PE`` recurses as deeply as the subject program unfolds; Python's C
stack does not, and raising ``sys.setrecursionlimit`` (the engines'
historical band-aid) merely moves the crash from ``RecursionError`` to
a segfault.  Instead, every engine's walk is written as *generators*:
the online and offline specializers' ``_pe*`` methods, the functions
an emitted generating extension consists of, and the call they all
share (:func:`repro.online.walk.walk_call`).  Each ``yield``\\ s the
sub-computation (another generator) it needs next and receives that
computation's return value back from the driver below, which keeps the
pending work on an explicit heap-allocated stack.
:meth:`repro.online.walk.Walk.run` runs every engine's walk here, so
the Python call stack stays a constant handful of frames deep no
matter how far specialization unfolds.

The transformation preserves evaluation order exactly — a ``yield`` is
resumed at the same point a direct call would have returned to — so
residual programs, gensym numbering and counters are identical to the
direct-recursive engines', byte for byte.

Convention used by the engines: recursive descents are plain
``value = yield self._pe(...)`` (an emitted genext writes ``_t = yield
residual_call(...)``); only a dispatcher delegating to its one
immediate helper may use ``yield from`` (the delegation chain is
bounded, so resumption cost stays O(1) per step).
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["run_trampoline"]


def run_trampoline(root: Iterator) -> Any:
    """Run a generator-based recursion to completion and return its
    ``StopIteration`` value.

    Yielded values must themselves be generators (sub-computations);
    each is pushed on the stack, driven to completion, and its return
    value sent back into the generator that yielded it.
    """
    stack = [root]
    result = None
    try:
        while stack:
            gen = stack[-1]
            try:
                sub = gen.send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
                continue
            stack.append(sub)
            result = None
    finally:
        # On an escaping exception, close suspended generators so any
        # cleanup code in them cannot fire at GC time instead.
        for gen in reversed(stack):
            gen.close()
    return result
