"""Products of facets (Definition 5) and the values that flow through
parameterized partial evaluation.

Section 4.4's semantic domain is ``D^ = sum_j (D^_j1 (x) ... (x) D^_jm)``
— one smashed product of facet domains per basic algebra, with the
partial-evaluation facet always the first component.  A
:class:`FacetVector` is one element of that sum: the summand tag
(``sort``), the PE-facet component (``pe``) and the user-facet components
(``user``).  A vector of *unknown* sort (``sort=None``) arises for
residual expressions whose type the specializer cannot see (e.g. results
of residual calls); every facet component of such a vector is that
facet's top.

:class:`FacetSuite` is the configuration object of the whole system: the
set of user facets the partial evaluator is *parameterized* by.  It
builds vectors, joins them, projects components, and implements the
product operators ``omega_p`` of Definition 5 together with the
constant-propagation rule of Figure 3's ``K^`` (a constant produced by
any facet is pushed to all facets through their abstraction functions).

The suite also owns the hot-path caching layer (on by default, opt out
with ``FacetSuite(facets, caching=False)``):

* a **dispatch cache** memoizing overload resolution keyed on
  ``(prim_name, argument sorts)`` — the specializers re-apply the same
  primitive instances thousands of times per run;
* **hash-consed vectors** — ``const_vector``, ``unknown``, ``bottom``
  and every product built through :meth:`make_vector` are interned, so
  the smashed-product values that dominate allocation are shared,
  identity-comparable, and carry a memoized bottom check;
* a **pure-operator memo** for closed facet operators and the PE
  facet's uniform operator on interned inputs;
* a **restriction memo** for :meth:`FacetSuite.restrict`, which the
  offline walk and an emitted genext call at every literal, fold and
  call argument to top out the facets a function does not need.  It
  is keyed on the vector's identity and the keep-mask, and each entry
  keeps its vector, so an entry can never match a later vector that
  reuses a dead one's ``id``.  A hit counts as a vector hit, and a
  miss falls through to :meth:`make_vector`, which counts its own
  lookup, so the counters read as if every restriction were built.

Caching is observationally transparent: residual programs and every
:class:`~repro.observability.stats.PEStats` counter are identical with
caching on or off (``facet_evaluations`` counts operator applications
in the paper's cost model even when the memo served them).  Hit rates
are reported through :attr:`FacetSuite.cache_stats`, and
:meth:`FacetSuite.memo_size` counts every table, the restriction memo
included, so a long-lived owner can bound them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.lang.errors import ConsistencyError, EvalError
from repro.lang.primitives import PRIMITIVES, PrimSig
from repro.lang.values import Value, is_value, sort_of, zero_signs
from repro.lattice.core import AbstractValue
from repro.lattice.pevalue import PE_LATTICE, PEValue
from repro.observability.cache_stats import CacheStats
from repro.facets.base import Facet
from repro.facets.pe import PE_FACET


@dataclass(frozen=True)
class FacetVector:
    """One element of the sum-of-products domain ``D^``."""

    sort: str | None
    pe: PEValue
    user: tuple[AbstractValue, ...]

    def __str__(self) -> str:
        if not self.user:
            return f"<{self.pe}>"
        components = ", ".join(str(c) for c in self.user)
        return f"<{self.pe}, {components}>"


@dataclass(frozen=True)
class PrimOutcome:
    """Result of applying a product operator to argument vectors.

    ``folded`` is true when the application produced a constant;
    ``producer`` then names the facet responsible (``"pe"`` for plain
    constant folding — anything else is a win only parameterized PE can
    get).  ``facet_evaluations`` counts how many facet operators ran,
    the online-cost measure reported by ``bench_decisions``.
    """

    vector: FacetVector
    sig: PrimSig | None
    folded: bool
    producer: str | None
    facet_evaluations: int


#: Dispatch-cache entry for "no unique overload".
_NO_SIG = (None, ())


class FacetSuite:
    """A set of user facets parameterizing the partial evaluator."""

    def __init__(self, facets: Sequence[Facet] = (), *,
                 caching: bool = True) -> None:
        self.facets = tuple(facets)
        names = [f.name for f in self.facets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate facet names: {names}")
        self._by_sort: dict[str, tuple[Facet, ...]] = {}
        for facet in self.facets:
            existing = self._by_sort.get(facet.carrier, ())
            self._by_sort[facet.carrier] = existing + (facet,)
        # id(facet) -> component index within its carrier's group.
        self._facet_pos: dict[int, int] = {
            id(facet): index
            for group in self._by_sort.values()
            for index, facet in enumerate(group)}
        self.caching = caching
        self.cache_stats = CacheStats()
        # (prim, arg sorts) -> (sig | None, facets of sig.carrier)
        self._dispatch: dict[tuple, tuple[PrimSig | None,
                                          tuple[Facet, ...]]] = {}
        # (prim, arity) -> common result sort | None
        self._result_sorts: dict[tuple[str, int], str | None] = {}
        # (sort, pe, user) -> interned vector
        self._vectors: dict[tuple, FacetVector] = {}
        # id(interned vector) -> memoized bottom check (safe: the
        # intern table keeps every keyed vector alive for the suite's
        # lifetime, so ids are never reused by live foreign vectors).
        self._bottoms: dict[int, bool] = {}
        self._unknown_by_sort: dict[str | None, FacetVector] = {}
        self._bottom_by_sort: dict[str | None, FacetVector] = {}
        # (sort, constant) -> interned constant vector
        self._consts: dict[tuple, FacetVector] = {}
        # (facet name, prim, sig, projected args) -> operator result
        self._ops: dict[tuple, object] = {}
        # (prim, interned arg identities) -> complete PrimOutcome
        self._outcomes: dict[tuple, PrimOutcome] = {}
        # (id(vector), keep-mask) -> (vector, restricted vector); the
        # entry keeps its vector alive, so its id is never reused.
        self._restricted: dict[tuple, tuple[FacetVector,
                                            FacetVector]] = {}

    def memo_size(self) -> int:
        """Entries held by the caching layer's tables (what a
        long-lived suite grows by)."""
        return (len(self._dispatch) + len(self._result_sorts)
                + len(self._vectors) + len(self._unknown_by_sort)
                + len(self._bottom_by_sort) + len(self._consts)
                + len(self._ops) + len(self._outcomes)
                + len(self._restricted))

    # -- structure ------------------------------------------------------
    def facets_for(self, sort: str | None) -> tuple[Facet, ...]:
        """User facets of the algebra ``sort`` (empty for unknown)."""
        if sort is None:
            return ()
        return self._by_sort.get(sort, ())

    def facet_named(self, name: str) -> Facet:
        for facet in self.facets:
            if facet.name == name:
                return facet
        raise KeyError(f"no facet named {name!r}")

    def describe(self) -> str:
        lines = [PE_FACET.describe()]
        lines.extend(facet.describe() for facet in self.facets)
        return "\n".join(lines)

    # -- vector constructors ---------------------------------------------
    def make_vector(self, sort: str | None, pe: PEValue,
                    user: tuple[AbstractValue, ...]) -> FacetVector:
        """Hash-consing constructor: one shared instance per distinct
        ``(sort, pe, user)``; falls back to a fresh instance when a
        component is unhashable or caching is off."""
        if not self.caching:
            return FacetVector(sort, pe, user)
        key = (sort, pe, user)
        try:
            vector = self._vectors.get(key)
        except TypeError:
            return FacetVector(sort, pe, user)
        if vector is not None:
            self.cache_stats.vector_hits += 1
            return vector
        self.cache_stats.vector_misses += 1
        vector = FacetVector(sort, pe, user)
        self._vectors[key] = vector
        self._bottoms[id(vector)] = self._compute_is_bottom(vector)
        return vector

    def const_vector(self, value: Value) -> FacetVector:
        """``K^`` of Figure 3: a constant, abstracted into every facet of
        its algebra."""
        if not is_value(value):
            raise TypeError(f"not a value: {value!r}")
        sort = sort_of(value)
        if self.caching:
            key = (sort, value, zero_signs(value))
            try:
                cached = self._consts.get(key)
            except TypeError:
                cached = key = None
            if cached is not None:
                return cached
        user = tuple(facet.abstract(value)
                     for facet in self.facets_for(sort))
        vector = self.make_vector(sort, PEValue.const(value), user)
        if self.caching and key is not None:
            self._consts[key] = vector
        return vector

    def restrict(self, vector: FacetVector,
                 keep: tuple[bool, ...]) -> FacetVector:
        """``vector`` with the components of the facets ``keep`` masks
        out (one flag per facet of its sort) raised to top, memoized on
        the vector's identity and the mask.  A lookup counts as a
        vector hit, or falls through to :meth:`make_vector`, which
        counts its own."""
        if self.caching:
            key = (id(vector), keep)
            entry = self._restricted.get(key)
            if entry is not None and entry[0] is vector:
                self.cache_stats.vector_hits += 1
                return entry[1]
        sort = vector.sort
        user = tuple(
            component if kept else facet.domain.top
            for kept, facet, component
            in zip(keep, self.facets_for(sort), vector.user))
        restricted = self.make_vector(sort, vector.pe, user)
        if self.caching:
            self._restricted[key] = (vector, restricted)
        return restricted

    def unknown(self, sort: str | None = None) -> FacetVector:
        """A fully dynamic value: top in every component."""
        if self.caching:
            cached = self._unknown_by_sort.get(sort)
            if cached is not None:
                return cached
        user = tuple(facet.domain.top for facet in self.facets_for(sort))
        vector = self.make_vector(sort, PEValue.top(), user)
        if self.caching:
            self._unknown_by_sort[sort] = vector
        return vector

    def bottom(self, sort: str | None = None) -> FacetVector:
        if self.caching:
            cached = self._bottom_by_sort.get(sort)
            if cached is not None:
                return cached
        user = tuple(facet.domain.bottom
                     for facet in self.facets_for(sort))
        vector = self.make_vector(sort, PEValue.bottom(), user)
        if self.caching:
            self._bottom_by_sort[sort] = vector
        return vector

    def input(self, sort: str, pe: PEValue | None = None,
              **components: AbstractValue) -> FacetVector:
        """Build a specialization input like the paper's ``<T, 3>``
        (dynamic vector of known size 3): keyword arguments name facets,
        unnamed facets default to top."""
        facets = self.facets_for(sort)
        known = dict(components)
        user = []
        for facet in facets:
            user.append(known.pop(facet.name, facet.domain.top))
        if known:
            raise KeyError(
                f"no facet(s) named {sorted(known)} for sort {sort!r}")
        vector = self.make_vector(
            sort, pe if pe is not None else PEValue.top(), tuple(user))
        return self.smash(vector)

    def smash(self, vector: FacetVector) -> FacetVector:
        """Collapse to the summand bottom when any component is bottom
        (the smashed product of Definition 5)."""
        if self.is_bottom(vector):
            return self.bottom(vector.sort)
        return vector

    def is_bottom(self, vector: FacetVector) -> bool:
        cached = self._bottoms.get(id(vector))
        if cached is not None:
            return cached
        return self._compute_is_bottom(vector)

    def _compute_is_bottom(self, vector: FacetVector) -> bool:
        if vector.pe.is_bottom:
            return True
        facets = self.facets_for(vector.sort)
        return any(facet.domain.leq(component, facet.domain.bottom)
                   for facet, component in zip(facets, vector.user))

    # -- lattice operations -----------------------------------------------
    def join(self, left: FacetVector, right: FacetVector) -> FacetVector:
        """Component-wise join; joining across different summands loses
        the sort (conditional branches of different types)."""
        if left is right:
            return left
        if self.is_bottom(left):
            return right
        if self.is_bottom(right):
            return left
        if left.sort != right.sort:
            # Joining across summands: the facet components belong to
            # different algebras and are lost, but the PE component
            # joins in the flat Values lattice (constants of different
            # sorts are distinct, so this is usually top).
            return self.make_vector(None,
                                    PE_LATTICE.join(left.pe, right.pe),
                                    ())
        facets = self.facets_for(left.sort)
        user = tuple(facet.domain.join(l, r) for facet, l, r
                     in zip(facets, left.user, right.user))
        return self.make_vector(left.sort,
                                PE_LATTICE.join(left.pe, right.pe),
                                user)

    def leq(self, left: FacetVector, right: FacetVector) -> bool:
        if left is right:
            return True
        if self.is_bottom(left):
            return True
        if self.is_bottom(right):
            return False
        if left.sort != right.sort:
            # A sortless vector carries no facet components (they are
            # implicitly top), so only the PE order matters; vectors of
            # two *known* distinct summands are incomparable.
            if right.sort is None:
                return PE_LATTICE.leq(left.pe, right.pe)
            return False
        if not PE_LATTICE.leq(left.pe, right.pe):
            return False
        facets = self.facets_for(left.sort)
        return all(facet.domain.leq(l, r) for facet, l, r
                   in zip(facets, left.user, right.user))

    def informative(self, vector: FacetVector) -> bool:
        """Does specializing on this value stand to gain anything: is
        it a constant, or does some facet component lie below top?"""
        if vector.pe.is_const:
            return True
        facets = self.facets_for(vector.sort)
        return any(not facet.domain.leq(facet.domain.top, component)
                   for facet, component in zip(facets, vector.user))

    def component(self, vector: FacetVector, facet: Facet) \
            -> AbstractValue:
        """Project one facet's component out of a vector; vectors of a
        different (or unknown) sort project to that facet's top."""
        if vector.sort != facet.carrier:
            return facet.domain.top
        index = self._facet_pos.get(id(facet))
        if index is None or index >= len(vector.user):
            # A facet that is not part of this suite projects to top.
            return facet.domain.top
        return vector.user[index]

    # -- the product operators (Definition 5) ------------------------------
    def apply_prim(self, prim_name: str,
                   args: Sequence[FacetVector]) -> PrimOutcome:
        """Apply the product operator ``omega_p`` for a primitive.

        Implements both clauses of Definition 5 and the constant
        propagation of Figure 3's ``K^_P``: when the application yields a
        constant, the result vector is the constant's abstraction in
        *every* facet.

        The whole outcome — result vector, fold decision and the
        semantic ``facet_evaluations`` count — is a pure function of
        the arguments, so it is memoized on interned argument identity;
        a cache hit replays the exact accounting of the original
        application.
        """
        if prim_name not in PRIMITIVES:
            raise EvalError(f"unknown primitive {prim_name!r}")
        memo_key = None
        if self.caching:
            interned = self._bottoms
            if all(id(arg) in interned for arg in args):
                memo_key = (prim_name, *map(id, args))
                cached = self._outcomes.get(memo_key)
                if cached is not None:
                    self.cache_stats.outcome_hits += 1
                    return cached
                self.cache_stats.outcome_misses += 1
        outcome = self._apply_prim_uncached(prim_name, args)
        if memo_key is not None:
            self._outcomes[memo_key] = outcome
        return outcome

    def _apply_prim_uncached(self, prim_name: str,
                             args: Sequence[FacetVector]) -> PrimOutcome:
        sig, facets = self._dispatch_prim(prim_name, args)
        if sig is None:
            result_sort = self._common_result_sort(prim_name, args)
            return PrimOutcome(self.unknown(result_sort), None,
                               False, None, 0)
        if any(self.is_bottom(arg) for arg in args):
            return PrimOutcome(self.bottom(sig.result_sort), sig,
                               False, None, 0)

        pe_result = self._apply_pe(prim_name, sig,
                                   tuple(arg.pe for arg in args))
        evaluations = 1  # the PE facet ran

        if sig.is_closed:
            components = []
            for facet in facets:
                projected = self._project_args(facet, sig, args)
                components.append(
                    self._apply_closed(facet, prim_name, sig, projected))
                evaluations += 1
            if pe_result.is_const:
                return PrimOutcome(
                    self.const_vector(pe_result.constant()), sig,
                    True, "pe", evaluations)
            vector = self.smash(
                self.make_vector(sig.result_sort, pe_result,
                                 tuple(components)))
            return PrimOutcome(vector, sig, False, None, evaluations)

        # Open operator: every facet (PE facet included) may produce the
        # constant; Lemma 3 guarantees agreement for consistent inputs.
        produced: list[tuple[str, PEValue]] = [("pe", pe_result)]
        for facet in facets:
            projected = self._project_args(facet, sig, args)
            produced.append(
                (facet.name,
                 facet.apply_open(prim_name, sig, projected)))
            evaluations += 1
        if any(value.is_bottom for _, value in produced):
            return PrimOutcome(self.bottom(sig.result_sort), sig,
                               False, None, evaluations)
        constants = [(name, value) for name, value in produced
                     if value.is_const]
        if constants:
            names = {name for name, _ in constants}
            distinct = {value for _, value in constants}
            if len(distinct) > 1:
                raise ConsistencyError(
                    f"{prim_name}: facets {sorted(names)} produced "
                    f"disagreeing constants {distinct}; the input facet "
                    f"values are inconsistent (Definition 6)")
            name, value = constants[0]
            return PrimOutcome(self.const_vector(value.constant()), sig,
                               True, name, evaluations)
        return PrimOutcome(self.unknown(sig.result_sort), sig,
                           False, None, evaluations)

    # -- cached operator applications ---------------------------------------
    def _apply_pe(self, prim_name: str, sig: PrimSig,
                  pe_args: tuple[PEValue, ...]) -> PEValue:
        """The PE facet's uniform operator, memoized (it is pure —
        errors fold to top deterministically)."""
        if not self.caching:
            return PE_FACET.apply(prim_name, sig, pe_args)
        key = ("pe", prim_name, sig, pe_args)
        try:
            cached = self._ops.get(key)
        except TypeError:
            return PE_FACET.apply(prim_name, sig, pe_args)
        if cached is not None:
            self.cache_stats.op_hits += 1
            return cached  # type: ignore[return-value]
        self.cache_stats.op_misses += 1
        result = PE_FACET.apply(prim_name, sig, pe_args)
        self._ops[key] = result
        return result

    def _apply_closed(self, facet: Facet, prim_name: str, sig: PrimSig,
                      projected: list[object]) -> AbstractValue:
        """A closed facet operator, memoized on interned inputs (facet
        operators are pure abstract functions by Definition 4)."""
        if not self.caching:
            return facet.apply_closed(prim_name, sig, projected)
        try:
            key: Hashable = (facet.name, prim_name, sig,
                             tuple(projected))
            cached = self._ops.get(key)
        except TypeError:
            return facet.apply_closed(prim_name, sig, projected)
        if cached is not None:
            self.cache_stats.op_hits += 1
            return cached
        self.cache_stats.op_misses += 1
        result = facet.apply_closed(prim_name, sig, projected)
        self._ops[key] = result
        return result

    # -- overload dispatch ----------------------------------------------------
    def _dispatch_prim(self, prim_name: str,
                       args: Sequence[FacetVector]) \
            -> tuple[PrimSig | None, tuple[Facet, ...]]:
        """Resolve the overload and its carrier's facets, memoized on
        ``(prim_name, argument sorts)``."""
        if not self.caching:
            sig = self._resolve_sig(prim_name, args)
            return (sig, self.facets_for(sig.carrier)) if sig \
                else _NO_SIG
        key = (prim_name, tuple(arg.sort for arg in args))
        entry = self._dispatch.get(key)
        if entry is not None:
            self.cache_stats.dispatch_hits += 1
            return entry
        self.cache_stats.dispatch_misses += 1
        sig = self._resolve_sig(prim_name, args)
        entry = (sig, self.facets_for(sig.carrier)) if sig else _NO_SIG
        self._dispatch[key] = entry
        return entry

    def resolve_sig(self, prim_name: str,
                    args: Sequence[FacetVector]) -> PrimSig | None:
        """Public alias of the overload resolver (used by the offline
        specializer and the generating extension); cached like
        :meth:`apply_prim`'s dispatch."""
        if prim_name not in PRIMITIVES:
            raise EvalError(f"unknown primitive {prim_name!r}")
        return self._dispatch_prim(prim_name, args)[0]

    def project_args(self, facet: Facet, sig: PrimSig,
                     args: Sequence[FacetVector]) -> list[object]:
        """Public alias of the per-facet argument projection."""
        return self._project_args(facet, sig, args)

    def _resolve_sig(self, prim_name: str,
                     args: Sequence[FacetVector]) -> PrimSig | None:
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
                            args: Sequence[FacetVector]) -> str | None:
        key = (prim_name, len(args))
        if self.caching and key in self._result_sorts:
            return self._result_sorts[key]
        prim = PRIMITIVES[prim_name]
        sorts = {sig.result_sort for sig in prim.sigs
                 if len(sig.arg_sorts) == len(args)}
        result = sorts.pop() if len(sorts) == 1 else None
        if self.caching:
            self._result_sorts[key] = result
        return result

    def _project_args(self, facet: Facet, sig: PrimSig,
                      args: Sequence[FacetVector]) -> list[object]:
        projected: list[object] = []
        for arg_sort, arg in zip(sig.arg_sorts, args):
            if arg_sort == facet.carrier:
                projected.append(self.component(arg, facet))
            else:
                projected.append(arg.pe)
        return projected

    # -- consistency (Definition 6) ----------------------------------------
    def is_consistent(self, vector: FacetVector,
                      candidates: Iterable[Value]) -> bool:
        """Check Definition 6 against an explicit candidate set: some
        proper concrete value must be described by *every* component."""
        if self.is_bottom(vector):
            return False
        for candidate in candidates:
            if self.describes(vector, candidate):
                return True
        return False

    def describes(self, vector: FacetVector, value: Value) -> bool:
        """The conjunction of the logical relations: ``value`` lies in
        every component's concretization."""
        if sort_of(value) != vector.sort:
            return vector.sort is None
        if vector.pe.is_const and PEValue.const(value) != vector.pe:
            return False
        if vector.pe.is_bottom:
            return False
        facets = self.facets_for(vector.sort)
        return all(facet.concretizes(value, component)
                   for facet, component in zip(facets, vector.user))
