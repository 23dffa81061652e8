"""Products of abstract facets (Definition 9) and analysis-time values.

The facet analysis of Figure 4 computes over ``S~D — a sum, indexed by
basic algebra, of smashed products of abstract facet domains with the
binding-time facet as the first component.  :class:`AbstractVector` is
one element of that sum (the analysis-level mirror of
:class:`~repro.facets.vector.FacetVector`); :class:`AbstractSuite`
builds the abstract companions of a :class:`~repro.facets.vector.FacetSuite`'s
facets and implements the product operators ``omega~_p``.

Open-operator outcomes record *which* abstract facet produced Static —
the offline specializer uses that to know whose online operator to
trigger at specialization time, the "selects the corresponding reduction
operations prior to specialization" of the introduction.

Like its online suite, an :class:`AbstractSuite` memoizes its pure
operators — :meth:`~AbstractSuite.apply_prim`,
:meth:`~AbstractSuite.is_bottom` and :meth:`~AbstractSuite.leq` — on
their (frozen, hashable) arguments, so one suite reused across analyses
computes each ``omega~_p`` instance once.  The memo follows the online
suite's ``caching`` switch and is transparent: analyses, annotations and
offline residuals are identical with it on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lang.primitives import PRIMITIVES, PrimSig
from repro.lang.values import Value, is_value, sort_of
from repro.lattice.bt import BT, BT_LATTICE
from repro.lattice.core import AbstractValue
from repro.facets.abstract.base import AbstractFacet
from repro.facets.abstract.bt_facet import BT_FACET
from repro.facets.abstract.derive import derive_abstract
from repro.facets.vector import FacetSuite, FacetVector
from repro.algebra.abstraction import tau_offline


@dataclass(frozen=True)
class AbstractVector:
    """One element of ``S~D``: summand tag, BT component, user facets."""

    sort: str | None
    bt: BT
    user: tuple[AbstractValue, ...]

    def __str__(self) -> str:
        if not self.user:
            return f"<{self.bt}>"
        components = ", ".join(str(c) for c in self.user)
        return f"<{self.bt}, {components}>"


@dataclass(frozen=True)
class AbstractOutcome:
    """Result of applying an abstract product operator."""

    vector: AbstractVector
    sig: PrimSig | None
    static: bool
    producer: str | None


class AbstractSuite:
    """The abstract companions of a facet suite, plus the BT facet."""

    def __init__(self, online: FacetSuite) -> None:
        self.online = online
        self.facets: tuple[AbstractFacet, ...] = tuple(
            derive_abstract(facet) for facet in online.facets)
        self._by_sort: dict[str, tuple[AbstractFacet, ...]] = {}
        for facet in self.facets:
            existing = self._by_sort.get(facet.carrier, ())
            self._by_sort[facet.carrier] = existing + (facet,)
        self.caching = online.caching
        # (prim, *args) -> outcome; vector -> bottom check;
        # (left, right) -> order.
        self._outcomes: dict[tuple, AbstractOutcome] = {}
        self._bottoms: dict[AbstractVector, bool] = {}
        self._leqs: dict[tuple, bool] = {}

    def memo_size(self) -> int:
        """Entries held by the operator memos (what a long-lived suite
        grows by)."""
        return len(self._outcomes) + len(self._bottoms) + len(self._leqs)

    # -- structure ------------------------------------------------------
    def facets_for(self, sort: str | None) -> tuple[AbstractFacet, ...]:
        if sort is None:
            return ()
        return self._by_sort.get(sort, ())

    def facet_named(self, name: str) -> AbstractFacet:
        for facet in self.facets:
            if facet.name == name:
                return facet
        raise KeyError(f"no abstract facet named {name!r}")

    def describe(self) -> str:
        lines = [BT_FACET.describe()]
        lines.extend(facet.describe() for facet in self.facets)
        return "\n".join(lines)

    # -- vector constructors ------------------------------------------------
    def const_vector(self, value: Value) -> AbstractVector:
        """Figure 4's ``K~[c]``: Static, with each ``Gamma_i(c)``."""
        if not is_value(value):
            raise TypeError(f"not a value: {value!r}")
        sort = sort_of(value)
        user = tuple(facet.abstract(value)
                     for facet in self.facets_for(sort))
        return AbstractVector(sort, BT.STATIC, user)

    def static(self, sort: str | None = None) -> AbstractVector:
        """A fully static input of unknown concrete value."""
        user = tuple(facet.domain.top for facet in self.facets_for(sort))
        return AbstractVector(sort, BT.STATIC, user)

    def dynamic(self, sort: str | None = None) -> AbstractVector:
        user = tuple(facet.domain.top for facet in self.facets_for(sort))
        return AbstractVector(sort, BT.DYNAMIC, user)

    def bottom(self, sort: str | None = None) -> AbstractVector:
        user = tuple(facet.domain.bottom
                     for facet in self.facets_for(sort))
        return AbstractVector(sort, BT.BOT, user)

    def input(self, sort: str, bt: BT = BT.DYNAMIC,
              **components: AbstractValue) -> AbstractVector:
        """Build an analysis input like the paper's ``<Dynamic, s>``."""
        facets = self.facets_for(sort)
        known = dict(components)
        user = []
        for facet in facets:
            user.append(known.pop(facet.name, facet.domain.top))
        if known:
            raise KeyError(
                f"no abstract facet(s) named {sorted(known)} for sort "
                f"{sort!r}")
        return self.smash(AbstractVector(sort, bt, tuple(user)))

    def abstract_of_online(self, vector: FacetVector) -> AbstractVector:
        """The facet mapping from the online level, component-wise:
        ``tau~`` on the PE component, each ``alpha~_i`` on the rest."""
        facets = self.facets_for(vector.sort)
        user = tuple(facet.abstract_of_facet(component)
                     for facet, component in zip(facets, vector.user))
        return self.smash(
            AbstractVector(vector.sort, tau_offline(vector.pe), user))

    # -- lattice structure ------------------------------------------------
    def smash(self, vector: AbstractVector) -> AbstractVector:
        if self.is_bottom(vector):
            return self.bottom(vector.sort)
        return vector

    def is_bottom(self, vector: AbstractVector) -> bool:
        if vector.bt.is_bottom:
            return True
        if not self.caching:
            return self._compute_is_bottom(vector)
        cached = self._bottoms.get(vector)
        if cached is None:
            cached = self._bottoms[vector] = \
                self._compute_is_bottom(vector)
        return cached

    def _compute_is_bottom(self, vector: AbstractVector) -> bool:
        facets = self.facets_for(vector.sort)
        return any(facet.domain.leq(component, facet.domain.bottom)
                   for facet, component in zip(facets, vector.user))

    def join(self, left: AbstractVector, right: AbstractVector) \
            -> AbstractVector:
        if self.is_bottom(left):
            return right
        if self.is_bottom(right):
            return left
        if left.sort != right.sort:
            # Joining across summands loses the facet components (they
            # live in different algebras) but not the binding time.
            return AbstractVector(None, left.bt.join(right.bt), ())
        facets = self.facets_for(left.sort)
        user = tuple(facet.domain.join(l, r) for facet, l, r
                     in zip(facets, left.user, right.user))
        return AbstractVector(left.sort, left.bt.join(right.bt), user)

    def widen(self, previous: AbstractVector, new: AbstractVector) \
            -> AbstractVector:
        """Join with per-component widening — required when a facet
        domain has infinite height (the interval facet)."""
        if self.is_bottom(previous):
            return new
        if self.is_bottom(new):
            return previous
        if previous.sort != new.sort or previous.sort is None:
            return self.join(previous, new)
        facets = self.facets_for(previous.sort)
        user = tuple(facet.domain.widen(p, n) for facet, p, n
                     in zip(facets, previous.user, new.user))
        return AbstractVector(previous.sort, previous.bt.join(new.bt),
                              user)

    def leq(self, left: AbstractVector, right: AbstractVector) -> bool:
        if not self.caching:
            return self._compute_leq(left, right)
        key = (left, right)
        cached = self._leqs.get(key)
        if cached is None:
            cached = self._leqs[key] = self._compute_leq(left, right)
        return cached

    def _compute_leq(self, left: AbstractVector,
                     right: AbstractVector) -> bool:
        if self.is_bottom(left):
            return True
        if self.is_bottom(right):
            return False
        if left.sort != right.sort:
            # Sortless vectors have implicitly-top facet components, so
            # only binding times compare; distinct known summands are
            # incomparable.
            if right.sort is None:
                return BT_LATTICE.leq(left.bt, right.bt)
            return False
        if not BT_LATTICE.leq(left.bt, right.bt):
            return False
        facets = self.facets_for(left.sort)
        return all(facet.domain.leq(l, r) for facet, l, r
                   in zip(facets, left.user, right.user))

    def component(self, vector: AbstractVector, facet: AbstractFacet) \
            -> AbstractValue:
        if vector.sort != facet.carrier:
            return facet.domain.top
        facets = self.facets_for(vector.sort)
        for candidate, component in zip(facets, vector.user):
            if candidate is facet:
                return component
        return facet.domain.top

    # -- the product operators (Definition 9) -------------------------------
    def apply_prim(self, prim_name: str,
                   args: Sequence[AbstractVector]) -> AbstractOutcome:
        """``omega~_p`` plus Figure 4's ``K~_P`` constant/result shaping,
        memoized on ``(prim_name, *args)``."""
        if not self.caching:
            return self._apply_prim_uncached(prim_name, args)
        key = (prim_name, *args)
        cached = self._outcomes.get(key)
        if cached is None:
            cached = self._outcomes[key] = \
                self._apply_prim_uncached(prim_name, args)
        return cached

    def _apply_prim_uncached(self, prim_name: str,
                             args: Sequence[AbstractVector]) \
            -> AbstractOutcome:
        prim = PRIMITIVES.get(prim_name)
        if prim is None:
            raise KeyError(f"unknown primitive {prim_name!r}")
        sig = self._resolve_sig(prim_name, args)
        if sig is None:
            result_sort = self._common_result_sort(prim_name, args)
            # Unresolvable overloads still obey the BT facet: a primitive
            # whose arguments are all static folds at specialization time.
            bt = BT_FACET.apply(prim_name,
                                prim.sigs[0], [a.bt for a in args])
            if bt.is_bottom:
                return AbstractOutcome(self.bottom(result_sort), None,
                                       False, None)
            if bt.is_static:
                return AbstractOutcome(self.static_result(result_sort),
                                       None, True, "bt")
            return AbstractOutcome(self.dynamic(result_sort), None,
                                   False, None)
        if any(self.is_bottom(arg) for arg in args):
            return AbstractOutcome(self.bottom(sig.result_sort), sig,
                                   False, None)

        bt_result = BT_FACET.apply(prim_name, sig,
                                   [arg.bt for arg in args])
        facets = self.facets_for(sig.carrier)

        if sig.is_closed:
            components = []
            for facet in facets:
                projected = self._project_args(facet, sig, args)
                components.append(
                    facet.apply_closed(prim_name, sig, projected))
            vector = self.smash(AbstractVector(
                sig.result_sort, bt_result, tuple(components)))
            return AbstractOutcome(vector, sig,
                                   bt_result.is_static,
                                   "bt" if bt_result.is_static else None)

        # Open operator (Definition 9 clause b): bottom-strict; Static if
        # any abstract facet (BT facet included) answers Static.
        produced: list[tuple[str, BT]] = [("bt", bt_result)]
        for facet in facets:
            projected = self._project_args(facet, sig, args)
            produced.append(
                (facet.name, facet.apply_open(prim_name, sig, projected)))
        if any(value.is_bottom for _, value in produced):
            return AbstractOutcome(self.bottom(sig.result_sort), sig,
                                   False, None)
        static = [(name, value) for name, value in produced
                  if value.is_static]
        if static:
            name = static[0][0]
            return AbstractOutcome(self.static_result(sig.result_sort),
                                   sig, True, name)
        return AbstractOutcome(self.dynamic(sig.result_sort), sig,
                               False, None)

    def static_result(self, sort: str | None) -> AbstractVector:
        """Figure 4's shaping of a Static open result: the constant is
        pushed through every facet of the result algebra, but at this
        level we only know it exists — Static with top components would
        lose the "it is a constant" information for downstream closed
        operators, so (faithful to ``K~_P``'s ``(d~, T, ..., T)``) the
        result is Static with top user components."""
        user = tuple(facet.domain.top for facet in self.facets_for(sort))
        return AbstractVector(sort, BT.STATIC, user)

    def _resolve_sig(self, prim_name: str,
                     args: Sequence[AbstractVector]) -> PrimSig | None:
        prim = PRIMITIVES[prim_name]
        arg_sorts = [arg.sort for arg in args]
        candidates = [sig for sig in prim.sigs
                      if len(sig.arg_sorts) == len(args)
                      and all(known is None or want == known
                              for want, known
                              in zip(sig.arg_sorts, arg_sorts))]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _common_result_sort(self, prim_name: str,
                            args: Sequence[AbstractVector]) -> str | None:
        prim = PRIMITIVES[prim_name]
        sorts = {sig.result_sort for sig in prim.sigs
                 if len(sig.arg_sorts) == len(args)}
        return sorts.pop() if len(sorts) == 1 else None

    def _project_args(self, facet: AbstractFacet, sig: PrimSig,
                      args: Sequence[AbstractVector]) -> list[object]:
        projected: list[object] = []
        for arg_sort, arg in zip(sig.arg_sorts, args):
            if arg_sort == facet.carrier:
                projected.append(self.component(arg, facet))
            else:
                projected.append(arg.bt)
        return projected

    def needs_widening(self) -> bool:
        """True when any facet domain is of infinite height, in which
        case fixpoint iteration must widen (footnote 1)."""
        for facet in self.facets:
            try:
                facet.domain.height()
            except NotImplementedError:
                return True
        return False
