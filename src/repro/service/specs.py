"""The spec mini-language shared by the CLI and the batch service.

A *spec* describes one goal-function input as a short string:

* a literal — ``3``, ``-2.5``, ``true``, ``#(1 2 3)`` — a fully static
  input;
* ``dyn`` — a fully dynamic input;
* comma-separated ``facet=value`` pairs — dynamic with facet
  information, e.g. ``size=3``, ``sign=pos,parity=odd``,
  ``interval=1:9``.

:func:`parse_spec` builds the online/offline input (a concrete value or
a :class:`~repro.facets.vector.FacetVector`);
:func:`simple_division` projects the same specs onto Figure 2's
facet-free division (literals stay static, everything else collapses
to :data:`~repro.baselines.simple_pe.DYN`), which
:func:`~repro.baselines.simple_pe.specialize_simple` feeds to the
online engine over the empty suite as the unknown value of unknown
sort.

Errors raise :class:`SpecError` so both front ends — ``argparse`` in
the CLI, request validation in the service — can report them their own
way.  A spec that does not parse is one, and so is a facet spec no
value satisfies (Definition 6): an empty interval, ``sign=pos`` with
``interval=-3:-1``, ``sign=zero,parity=odd``, a negative size, or
facets of two sorts.  :func:`check_spec` applies the grammar alone,
with no facet suite, so the service can reject such a request before
it is queued.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.simple_pe import DYN
from repro.facets.library.interval import Interval
from repro.facets.library.parity import EVEN, ODD
from repro.facets.library.sign import NEG, POS, ZERO
from repro.facets.vector import FacetSuite, FacetVector
from repro.lang.values import INT, VECTOR, Value, Vector


class SpecError(ValueError):
    """A malformed or unsatisfiable input spec string."""


def parse_value(text: str) -> Value:
    """A literal: ``true``/``false``, an int, a float, or ``#(...)``."""
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("#(") and text.endswith(")"):
        items = text[2:-1].split()
        try:
            return Vector.of([float(i) for i in items])
        except ValueError as error:
            raise SpecError(f"bad vector literal {text!r}: {error}") \
                from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise SpecError(f"bad literal {text!r}") from None


def _facet_components(text: str) -> tuple[str, dict[str, object]]:
    """The sort and facet components of a ``facet=value`` spec."""
    components: dict[str, object] = {}
    sorts = set()
    for pair in text.split(","):
        name, _, raw = pair.partition("=")
        if name in components:
            raise SpecError(f"facet {name!r} given twice in spec {text!r}")
        if name == "size":
            try:
                size = int(raw)
            except ValueError:
                raise SpecError(
                    f"size must be an int in spec {text!r}") from None
            if size < 0:
                raise SpecError(
                    f"size must be non-negative in spec {text!r}")
            components["size"] = size
            sorts.add(VECTOR)
        elif name in ("sign", "parity"):
            allowed = (POS, ZERO, NEG) if name == "sign" else (EVEN, ODD)
            if raw not in allowed:
                raise SpecError(
                    f"{name} must be one of {', '.join(allowed)} in "
                    f"spec {text!r}")
            components[name] = raw
            sorts.add(INT)
        elif name == "interval":
            lo_text, _, hi_text = raw.partition(":")
            try:
                lo = None if lo_text in ("", "-inf") else int(lo_text)
                hi = None if hi_text in ("", "inf", "+inf") \
                    else int(hi_text)
            except ValueError:
                raise SpecError(
                    f"bad interval bounds in spec {text!r}") from None
            if lo is not None and hi is not None and lo > hi:
                raise SpecError(f"empty interval in spec {text!r}")
            components["interval"] = Interval(lo, hi)
            sorts.add(INT)
        else:
            raise SpecError(f"unknown facet {name!r} in spec {text!r}")
    if len(sorts) != 1:
        raise SpecError(f"spec {text!r} mixes vector and integer facets")
    sort = sorts.pop()
    if sort == INT and not _some_integer(components):
        raise SpecError(f"no integer satisfies spec {text!r}")
    return sort, components


def _some_integer(components: dict[str, object]) -> bool:
    """Whether an integer has the spec's sign, parity and interval."""
    interval = components.get("interval", Interval(None, None))
    lo, hi = interval.lo, interval.hi  # type: ignore[union-attr]
    sign = components.get("sign")
    if sign in (POS, ZERO):
        floor = 1 if sign == POS else 0
        lo = floor if lo is None else max(lo, floor)
    if sign in (NEG, ZERO):
        ceiling = -1 if sign == NEG else 0
        hi = ceiling if hi is None else min(hi, ceiling)
    if lo is None or hi is None or lo < hi:
        return True
    parity = components.get("parity")
    return lo == hi and (parity is None or (lo % 2 == 0) == (parity == EVEN))


def parse_spec(suite: FacetSuite, text: str) -> FacetVector | Value:
    """``dyn``, a literal, or comma-separated ``facet=value`` pairs."""
    if text == "dyn":
        return suite.unknown(None)
    if "=" not in text:
        return parse_value(text)
    sort, components = _facet_components(text)
    return suite.input(sort, **components)  # type: ignore[arg-type]


def parse_specs(suite: FacetSuite,
                texts: Sequence[str]) -> list[FacetVector | Value]:
    return [parse_spec(suite, text) for text in texts]


def check_spec(text: str) -> None:
    """Raise :class:`SpecError` unless :func:`parse_spec` accepts
    ``text``; builds no facet suite."""
    if text == "dyn":
        return
    if "=" not in text:
        parse_value(text)
    else:
        _facet_components(text)


def simple_division(texts: Sequence[str]) -> list[object]:
    """Project specs onto Figure 2's facet-free division: literals are
    static, ``dyn`` and facet specs (whose information the simple PE
    cannot represent) are dynamic."""
    division: list[object] = []
    for text in texts:
        if text == "dyn" or "=" in text:
            division.append(DYN)
        else:
            division.append(parse_value(text))
    return division
