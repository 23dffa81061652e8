"""The specialization cache ``Sf`` of Figures 2 and 3.

The cache maps a *specialization pattern* — function name plus, per
argument, either the constant it folded to or the facet information it
still carries — to the residual function generated for it.  This is what
"achieves instantiation and folding as in [5] and ensures uniqueness of
specialized functions": re-encountering a pattern emits a call to the
cached residual function instead of re-specializing, which is also what
ties recursive specializations off.

Keys must be hashable; facet components are plain hashable values by
construction.  The generalization ladder the config's ``max_variants``
bound triggers lives beside :func:`make_key`: :func:`generalization_rung`
picks the rung and :func:`generalize` widens the call's vectors to it.
A suite without facets cannot tell non-constants apart: it keys one as
:data:`DYNAMIC`, without its sort, and its ladder skips rung 1 — Figure
2's one-rung ``Sf``, which the simple engine keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.lang.ast import FunDef
from repro.facets.vector import FacetSuite, FacetVector

#: Marker for a dynamic argument position inside a cache key.
DYNAMIC = "?"


@dataclass
class ResidualFunction:
    """One cache entry: the residual name, which argument positions stay
    as parameters, and (once specialization of the body finishes) the
    definition itself."""

    name: str
    source: str
    dynamic_positions: tuple[int, ...]
    params: tuple[str, ...]
    fundef: FunDef | None = None


class SpecCache:
    """``Sf`` plus residual-name allocation."""

    def __init__(self, reserved_names: Sequence[str]) -> None:
        self.entries: dict[Hashable, ResidualFunction] = {}
        self.order: list[ResidualFunction] = []
        self._taken = set(reserved_names)
        self._counters: dict[str, int] = {}
        self._variants: dict[str, int] = {}

    def variants_of(self, source: str) -> int:
        """Number of cached specializations of one source function."""
        return self._variants.get(source, 0)

    def lookup(self, key: Hashable) -> ResidualFunction | None:
        return self.entries.get(key)

    def register(self, key: Hashable, source: str,
                 dynamic_positions: tuple[int, ...],
                 params: tuple[str, ...]) -> ResidualFunction:
        """Allocate a residual name and record the (not yet built)
        specialization — recursive references hit the entry before its
        body exists, exactly as the recursive ``FnEnv`` of Figure 3."""
        name = self._fresh_name(source)
        entry = ResidualFunction(name, source, dynamic_positions, params)
        self.entries[key] = entry
        self.order.append(entry)
        self._variants[source] = self._variants.get(source, 0) + 1
        return entry

    def finish(self, entry: ResidualFunction, fundef: FunDef) -> None:
        entry.fundef = fundef

    def residual_defs(self) -> list[FunDef]:
        """Completed residual functions, in creation order (``MkProg``'s
        input)."""
        return [entry.fundef for entry in self.order
                if entry.fundef is not None]

    def _fresh_name(self, base: str) -> str:
        count = self._counters.get(base, 0) + 1
        candidate = f"{base}!{count}"
        while candidate in self._taken:
            count += 1
            candidate = f"{base}!{count}"
        self._counters[base] = count
        self._taken.add(candidate)
        return candidate


def make_key(suite: FacetSuite, fn: str,
             vectors: Sequence[FacetVector],
             generalization: int = 0) -> Hashable:
    """Build a cache key from the call's facet vectors.

    ``generalization`` selects a rung of the generalization ladder:
    0 = full precision (constants + facet components);
    1 = constants only (facet components dropped);
    2 = arity only (everything dynamic).
    Without facets a non-constant is :data:`DYNAMIC` on every rung.
    """
    parts: list[Hashable] = [fn]
    for vector in vectors:
        if generalization >= 2:
            parts.append(DYNAMIC)
        elif vector.pe.is_const:
            parts.append(("c", vector.pe))
        elif not suite.facets:
            parts.append(DYNAMIC)
        elif generalization >= 1:
            parts.append((DYNAMIC, vector.sort))
        else:
            parts.append((DYNAMIC, vector.sort, vector.user))
    return tuple(parts)


def generalization_rung(suite: FacetSuite, cache: SpecCache, fn: str,
                        max_variants: int, widen: bool) -> int:
    """The rung a call to ``fn`` is keyed at: 2 under a budget-forced
    widening or from ``2 * max_variants`` cached variants on, 1 from
    ``max_variants`` on (2 without facets), else 0 (see
    :func:`make_key`)."""
    if widen:
        return 2
    variants = cache.variants_of(fn)
    if variants >= 2 * max_variants:
        return 2
    if variants >= max_variants:
        return 1 if suite.facets else 2
    return 0


def generalize(suite: FacetSuite, vectors: Sequence[FacetVector],
               rung: int) -> list[FacetVector]:
    """Widen a call's vectors to ``rung``: facet components go to top
    on rung 1 (constants stay), everything goes to Dynamic on rung 2."""
    if rung >= 2:
        return [suite.unknown(vector.sort) for vector in vectors]
    return [vector if vector.pe.is_const else suite.unknown(vector.sort)
            for vector in vectors]


def dynamic_positions(vectors: Sequence[FacetVector],
                      generalization: int = 0) -> tuple[int, ...]:
    """Argument positions that stay parameters of the residual function
    (everything the key did not pin to a constant)."""
    if generalization >= 2:
        return tuple(range(len(vectors)))
    return tuple(i for i, vector in enumerate(vectors)
                 if not vector.pe.is_const)
