"""Exception hierarchy for the object language.

Every error raised by the language substrate (lexer, parser, validator,
interpreter) derives from :class:`LangError`, so callers can catch one type.
The partial evaluators reuse :class:`EvalError` for errors raised while
reducing static subexpressions, which lets them distinguish "the static part
of the program is broken" from bugs in the specializer itself.

The hierarchy is rooted in the engine-wide failure taxonomy of
:mod:`repro.engine.errors`: a :class:`LangError` is a
:class:`~repro.engine.errors.ProgramError` (the subject program is at
fault), and :class:`PEError` additionally sits under
:class:`~repro.engine.errors.SpecializationError` for compatibility —
it historically covered both program-side and specializer-side
failures.  Catching ``ReproError`` therefore catches everything.
"""

from __future__ import annotations

from repro.engine.errors import (
    FacetError, ProgramError, SpecializationError)


class LangError(ProgramError):
    """Base class of all object-language errors."""


class LexError(LangError):
    """Raised on malformed input at the token level.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(LangError):
    """Raised on structurally malformed programs (bad s-expressions,
    wrong ``define`` shape, unknown special form arity, ...)."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = "" if line is None else f"{line}:{column}: "
        super().__init__(f"{location}{message}")
        self.line = line
        self.column = column


class ValidationError(LangError):
    """Raised by :func:`repro.lang.program.Program.validate` on semantic
    problems: unbound variables, unknown functions or primitives, arity
    mismatches, duplicate definitions."""


class EvalError(LangError):
    """Raised by the standard interpreter on runtime errors: type errors
    at primitive applications, division by zero, vector index out of
    range."""


class FuelExhausted(EvalError):
    """Raised when the interpreter's step budget is exhausted.

    The standard semantics of Figure 1 is defined on a cpo and simply does
    not terminate for divergent programs; operationally we bound the number
    of function calls so tests and property checks can treat divergence as
    an observable outcome (the paper's theorems all hold "modulo
    termination").
    """


class PEError(LangError, SpecializationError):
    """Base class for partial-evaluation errors (both specializers)."""


class ConsistencyError(PEError, FacetError):
    """Raised when a product of facet values violates Definition 6, i.e.
    the facet components describe disjoint sets of concrete values."""
