"""Concrete value domain of the object language (Figure 1, ``Values``).

The paper's ``Values`` is a sum of basic semantic domains; we carry integers,
floats, booleans and the vector ADT of Section 6.  Each value belongs to
exactly one *sort* — the carrier of the semantic algebra it lives in — which
is what the facet machinery keys on (a facet abstracts one algebra).

Vectors are immutable: ``updvec`` returns a new vector, exactly like the
``UpdVec : V x Int x Float -> V`` operator of Section 6.  Unset slots hold
``None`` and reading one is an :class:`~repro.lang.errors.EvalError`, which
models reading from the "empty vector" ``MkVec`` creates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from repro.lang.errors import EvalError

#: Sort names. Every concrete value and every primitive-signature position
#: is tagged with one of these (or :data:`ANY` in signatures).
INT = "int"
FLOAT = "float"
BOOL = "bool"
VECTOR = "vector"
ANY = "any"

SORTS = (INT, FLOAT, BOOL, VECTOR)


@dataclass(frozen=True)
class Vector:
    """An immutable vector of floats with optional holes.

    ``items`` is a tuple whose entries are floats or ``None`` (unset).
    Indexing is 1-based following the paper's inner-product example, where
    ``dotProd`` walks indices ``n .. 1``.
    """

    items: tuple

    @staticmethod
    def empty(size: int) -> "Vector":
        if size < 0:
            raise EvalError(f"mkvec: negative size {size}")
        return Vector((None,) * size)

    @staticmethod
    def of(values: Iterable[float]) -> "Vector":
        return Vector(tuple(float(v) for v in values))

    @property
    def size(self) -> int:
        return len(self.items)

    def ref(self, index: int) -> float:
        self._check_index(index)
        item = self.items[index - 1]
        if item is None:
            raise EvalError(f"vref: slot {index} is unset")
        return item

    def update(self, index: int, value: float) -> "Vector":
        self._check_index(index)
        items = list(self.items)
        items[index - 1] = float(value)
        return Vector(tuple(items))

    def _check_index(self, index: int) -> None:
        if not isinstance(index, int) or isinstance(index, bool):
            raise EvalError(f"vector index must be an int, got {index!r}")
        if not 1 <= index <= len(self.items):
            raise EvalError(
                f"vector index {index} out of range 1..{len(self.items)}")

    def __str__(self) -> str:
        body = " ".join("_" if v is None else format_value(v)
                        for v in self.items)
        return f"#({body})"


#: A concrete value of the object language.
Value = Union[int, float, bool, Vector]


def sort_of(value: Value) -> str:
    """Return the sort (algebra carrier) a concrete value belongs to."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, Vector):
        return VECTOR
    raise EvalError(f"not an object-language value: {value!r}")


def is_value(obj: object) -> bool:
    """True if ``obj`` is a concrete object-language value."""
    return isinstance(obj, (bool, int, float, Vector))


def values_equal(left: Value, right: Value) -> bool:
    """Structural equality that never identifies values across sorts,
    nor ``0.0`` with ``-0.0``.

    Python's ``1 == 1.0 == True`` and ``0.0 == -0.0`` would otherwise
    make the constant caches of the specializers conflate distinct
    constants (the two zeros print differently).
    """
    return (sort_of(left) == sort_of(right) and left == right
            and zero_signs(left) == zero_signs(right))


def zero_signs(value: Value) -> object:
    """The signs of a value's float zeros, in order: what ``==`` does
    not see (``None`` for a value without float zeros)."""
    if isinstance(value, float):
        return math.copysign(1.0, value) if value == 0.0 else None
    if isinstance(value, Vector):
        return tuple(math.copysign(1.0, item) for item in value.items
                     if item == 0.0) or None
    return None


#: Tolerances of :func:`values_approx_equal`.  Loose enough to absorb
#: re-association introduced by specialization (constant folding can
#: evaluate ``a + b + c`` in a different order than the residual does),
#: tight enough that a genuinely wrong result never slips through.
APPROX_REL_TOL = 1e-9
APPROX_ABS_TOL = 1e-12


def values_approx_equal(left: Value, right: Value,
                        rel_tol: float = APPROX_REL_TOL,
                        abs_tol: float = APPROX_ABS_TOL) -> bool:
    """Like :func:`values_equal` but tolerant on floats.

    Sorts must still match exactly (``1`` never equals ``1.0``); ints
    and booleans compare exactly; floats compare with ``math.isclose``
    (NaN equals NaN — two engines both producing NaN agree); vectors
    compare elementwise with holes only equal to holes.  This is the
    one approx-equal helper the differential tests and benchmarks
    share, so every ``want == got`` on float-bearing results uses the
    same tolerance.
    """
    if sort_of(left) != sort_of(right):
        return False
    if isinstance(left, Vector):
        if len(left.items) != len(right.items):
            return False
        return all(
            (a is None) == (b is None)
            and (a is None or _floats_close(a, b, rel_tol, abs_tol))
            for a, b in zip(left.items, right.items))
    if isinstance(left, float):
        return _floats_close(left, right, rel_tol, abs_tol)
    return left == right


def _floats_close(left: float, right: float,
                  rel_tol: float, abs_tol: float) -> bool:
    if math.isnan(left) or math.isnan(right):
        return math.isnan(left) and math.isnan(right)
    return math.isclose(left, right, rel_tol=rel_tol, abs_tol=abs_tol)


def format_value(value: Value) -> str:
    """Render a value in surface syntax (also used by ``K^-1``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # Keep floats round-trippable through the lexer.
        text = repr(value)
        return text if ("." in text or "e" in text or "inf" in text
                        or "nan" in text) else text + ".0"
    return str(value)
