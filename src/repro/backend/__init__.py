"""Native-code backend: residual programs compiled to Python.

The paper's payoff (Theorem 1, Figure 3) is that specialization makes
*programs* faster — yet every residual in this repo historically ran
through the tree-walking interpreter of :mod:`repro.lang.interp`, so
the speedup benchmarks could only compare step counts inside the same
evaluator.  This package adds the missing codegen stage:

* :mod:`repro.backend.lower` — lowers ``lang.ast`` expressions to
  Python source (name mangling, ``let`` → assignment, first-order
  self/mutual tail recursion → loops, ``lambda``/``App`` → closures,
  constants → a module-level table);
* :mod:`repro.backend.emit` — compiles the lowered source into a
  :class:`~repro.backend.emit.CompiledProgram` with callable entry
  points and a content fingerprint, compiling each body once per
  process;
* :mod:`repro.backend.runtime` — the thin bridge keeping compiled
  semantics aligned with :mod:`repro.lang.primitives`, mapping runtime
  faults into the :mod:`repro.engine.errors` taxonomy;
* :mod:`repro.backend.verify` — a shadow mode running compiled and
  interpreted residuals side by side, raising
  :class:`~repro.backend.verify.ShadowMismatch` on any divergence.

Compiled programs implement exactly the standard semantics of
Figure 1: same values, same error taxonomy (division by zero, bad
vector accesses, wrong-arity closure application and unbound variables
all raise the same :class:`~repro.engine.errors.ReproError` subclass as
the interpreter), which ``tests/backend/`` pins differentially.
"""

from repro.backend.emit import (
    CompiledProgram, compile_artifact, compile_program)
from repro.backend.lower import LoweredProgram, lower_program
from repro.backend.verify import (
    BACKENDS, ShadowMismatch, execute_program, shadow_run)

__all__ = [
    "BACKENDS", "CompiledProgram", "LoweredProgram", "ShadowMismatch",
    "compile_artifact", "compile_program", "execute_program",
    "lower_program", "shadow_run",
]
