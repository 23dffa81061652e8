"""Emission: lowered Python source to executable code objects.

:func:`compile_program` drives the whole pipeline —
:func:`repro.backend.lower.lower_program`, Python's builtin
``compile()``, then ``exec`` into the runtime namespace of
:func:`repro.backend.runtime.runtime_globals` — and wraps the result in
a :class:`CompiledProgram` with callable entry points for every
definition and a content fingerprint (SHA-256 of the emitted source).

Lowering splits a module into its constant table and its body, the
definitions, which hold no literal.  :func:`compile_program` compiles
the table on every call and takes the body's code object from a
bounded per-process cache keyed by the body text
(``_BODY_CACHE_CAP`` entries, LRU, safe under concurrent compiles),
and executes both in one fresh namespace.  So residuals equal up
to their constants share one ``compile()`` of their body.  The compile
check is unchanged: the table and the body are top-level statements
that compile independently, so the module compiles exactly when both
parts do, and a body that fails to compile raises and is never cached.

:meth:`CompiledProgram.artifact` renders the unit as a plain-strings
dict the service cache can store next to a residual;
:func:`compile_artifact` rehydrates one without re-lowering, which is
what amortizes compilation cost across requests.  It compiles the
stored text whole, so artifacts of earlier builds, which hold their
constants inline, still load.

The error contract mirrors the interpreter's
:meth:`~repro.lang.interp.Interpreter.run`:

* object-language faults surface as the taxonomy classes the runtime
  bridge raises (:class:`~repro.lang.errors.EvalError` and friends —
  all :class:`~repro.engine.errors.ProgramError`);
* blowing the host recursion budget (deep *non-tail* object-language
  recursion nests Python frames) is reported as
  :class:`~repro.lang.errors.FuelExhausted`, the resource-limit view
  of divergence;
* anything else escaping compiled code would be a lowering bug and is
  wrapped as :class:`~repro.engine.errors.SpecializationError` — the
  engine, not the subject program, is at fault.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from types import CodeType
from typing import Sequence

from repro.backend.lower import LoweredProgram, lower_program
from repro.backend.runtime import runtime_globals
from repro.engine.errors import ReproError, SpecializationError
from repro.lang.errors import EvalError, FuelExhausted
from repro.lang.program import Program
from repro.lang.values import Value


def fingerprint_source(python_source: str) -> str:
    """Content fingerprint of an emitted module (SHA-256 hex)."""
    return hashlib.sha256(python_source.encode("utf-8")).hexdigest()


class CompiledProgram:
    """An executed compilation unit: one residual program, natively.

    ``call(name, args)`` / ``run(*args)`` follow the interpreter's
    calling convention (positional object-language values in, one value
    out) so the two engines are drop-in replacements for each other.
    """

    def __init__(self, lowered: LoweredProgram, namespace: dict,
                 program: Program | None = None) -> None:
        self.program = program
        self.lowered = lowered
        self.fingerprint = fingerprint_source(lowered.source)
        self._namespace = namespace
        self._entries = {
            name: (namespace[python_name], arity)
            for name, (python_name, arity) in lowered.entries.items()
        }

    @property
    def python_source(self) -> str:
        return self.lowered.source

    def artifact(self) -> dict:
        """The cacheable, pickle/JSON-friendly form the service stores
        next to a residual: plain strings and ints only."""
        return {
            "fingerprint": self.fingerprint,
            "python": self.lowered.source,
            "goal": self.lowered.goal,
            "entries": {name: [python_name, arity]
                        for name, (python_name, arity)
                        in self.lowered.entries.items()},
        }

    def call(self, name: str, args: Sequence[Value]) -> Value:
        """Evaluate a named function on concrete arguments."""
        entry = self._entries.get(name)
        if entry is None:
            raise EvalError(f"call to unknown function {name!r}")
        fn, arity = entry
        if len(args) != arity:
            raise EvalError(
                f"{name}: expected {arity} arguments, got {len(args)}")
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100_000))
        try:
            return fn(*args)
        except ReproError:
            raise
        except RecursionError:
            raise FuelExhausted(
                "evaluation exceeded the host recursion budget") \
                from None
        except Exception as exc:
            raise SpecializationError(
                f"backend: fault in compiled code for {name!r}: "
                f"{type(exc).__name__}: {exc}") from exc
        finally:
            sys.setrecursionlimit(old_limit)

    def run(self, *args: Value) -> Value:
        """Evaluate the goal function ``f_1`` on concrete arguments."""
        return self.call(self.lowered.goal, args)


#: Compiled residual bodies kept per process.  Residuals of one program
#: differ mostly in their literals, which the constant table holds, so
#: a pool member compiles each body shape once.
_BODY_CACHE_CAP = 256


@functools.lru_cache(maxsize=_BODY_CACHE_CAP)
def _body_code(body: str) -> CodeType:
    """The compiled ``body``.  A body that fails to compile raises,
    and ``lru_cache`` caches no exception."""
    return compile(body, "<ppe-backend>", "exec")


def _execute(lowered: LoweredProgram,
             program: Program | None) -> CompiledProgram:
    try:
        codes = [compile(lowered.table, "<ppe-backend>", "exec")]
        if lowered.body:
            codes.append(_body_code(lowered.body))
        namespace = runtime_globals()
        for code in codes:
            exec(code, namespace)
        return CompiledProgram(lowered, namespace, program=program)
    except ReproError:
        raise
    except Exception as exc:
        raise SpecializationError(
            f"backend: failed to compile residual: "
            f"{type(exc).__name__}: {exc}") from exc


def compile_program(program: Program) -> CompiledProgram:
    """Lower, compile and execute ``program`` into a fresh namespace
    (its body's code object may come from the body cache).

    Lowering or compiling can only fail on engine bugs (or residuals
    nested past CPython's parser limits), so failures are reported as
    :class:`~repro.engine.errors.SpecializationError`.
    """
    from repro.faults import fault_point
    try:
        fault_point("backend.compile")
        lowered = lower_program(program)
    except ReproError:
        raise
    except Exception as exc:
        raise SpecializationError(
            f"backend: failed to lower residual: "
            f"{type(exc).__name__}: {exc}") from exc
    return _execute(lowered, program)


def compile_artifact(artifact: dict) -> CompiledProgram:
    """Rehydrate a :meth:`CompiledProgram.artifact` (e.g. pulled out of
    the service cache) without re-lowering — that skip is the point of
    caching the artifact.

    The fingerprint is checked against the source; a mismatch means
    the artifact was corrupted in transit and is reported as
    :class:`~repro.engine.errors.SpecializationError`.
    """
    try:
        source = artifact["python"]
        goal = artifact["goal"]
        entries = {name: (python_name, int(arity))
                   for name, (python_name, arity)
                   in artifact["entries"].items()}
        claimed = artifact["fingerprint"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecializationError(
            f"backend: malformed compiled artifact: {exc!r}") from exc
    if fingerprint_source(source) != claimed:
        raise SpecializationError(
            "backend: compiled artifact fingerprint mismatch")
    lowered = LoweredProgram(source=source, entries=entries, goal=goal)
    return _execute(lowered, None)
