"""Runtime library of *emitted* generating extensions.

An emitted genext module (see :mod:`repro.genext.emit`) is flat Python:
one generator function per subject-program function whose body is the
offline walk of :class:`repro.offline.specializer.OfflineSpecializer`
with every annotation lookup, environment dictionary and node-type
dispatch compiled away, and each straight-line segment's node count
baked into a ``ctx.steps += n``.  What cannot be decided at emission
time — folding a primitive whose arguments turn out residual, the
unfold-or-specialize choice at a call, the facet join at a dynamic
conditional — is done by the walk's operations in
:mod:`repro.offline.walk` and :mod:`repro.online.walk`, the same code
the offline specializer runs; emitted modules import them from here by
name.  So residual programs (names, gensym order, statistics, budget
degradations) are the offline specializer's, byte for byte.

A call site yields :func:`residual_call`, the walk's one call
:func:`~repro.online.walk.walk_call` entering the callee's emitted
function, and :meth:`~repro.online.walk.Walk.run` drives it all on the
trampoline, as it drives the offline specializer: the emitted
functions never recurse on the host stack.

The module-level protocol: the emitted module builds a
:class:`GenextRuntime` from its baked manifest (facet-suite layout,
engine config, generalized input pattern, per-function needed-facet
sets and parameter occurrence counts) plus its emitted decision
functions, and re-exports :meth:`GenextRuntime.specialize`.  Importing
a genext performs **no parsing and no facet analysis** of the subject
program — that is the amortization the service's ``genext`` engine
buys: analysis cost is paid once per ``(source, config)``, not per
spec vector.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.lang.errors import PEError
from repro.lang.values import Value, Vector
from repro.facets import (
    ConstSetFacet, FacetSuite, IntervalFacet, ParityFacet, SignFacet,
    VectorSizeFacet)
from repro.facets.abstract.vector import AbstractSuite, AbstractVector
from repro.offline.analysis import analysis_input
from repro.offline.walk import (  # noqa: F401 — emitted modules' imports
    OfflineWalk, call_decision, fold, residual_prim, trigger, unbound)
from repro.online.config import PEConfig
from repro.online.walk import (  # noqa: F401 — emitted modules' imports
    Ctx, FunctionProfile, Pair, SpecializationResult, build_if, let_exit,
    walk_call)

#: Bumped when the emitted-module protocol changes; a persisted genext
#: with a different version fails to bind and is re-emitted.
#: 2: budget-metered modules (step counts baked into emitted code).
#: 3: emitted functions are generators that yield each call's walk.
GENEXT_PROTOCOL = 3

#: Non-finite float literals, referenced by name from emitted modules.
_inf = float("inf")
_nan = float("nan")


def _vec(items: Sequence[float | None]) -> Vector:
    """Vector literals in emitted const cells (holes stay ``None``)."""
    return Vector(tuple(items))


# -- suite reconstruction --------------------------------------------------

def facet_name_of(facet: object) -> str:
    """The wire name of a shipped facet; :class:`PEError` for facets
    the emitted-module manifest cannot describe."""
    if isinstance(facet, ConstSetFacet):
        from repro.facets.library.constset import DEFAULT_LIMIT
        limit = facet.domain.limit
        return ("constset" if limit == DEFAULT_LIMIT
                else f"constset<={limit}")
    name = getattr(facet, "name", None)
    if name is None or facet_from_name(str(name), probe=True) is None:
        raise PEError(
            f"cannot emit a generating extension over facet "
            f"{facet!r}: only the shipped facets "
            f"(sign/parity/interval/size/constset) have a stable "
            f"wire name")
    return str(name)


def facet_from_name(name: str, probe: bool = False):
    """Rebuild a shipped facet from its wire name (``None`` when
    probing an unknown name)."""
    if name == "sign":
        return SignFacet()
    if name == "parity":
        return ParityFacet()
    if name == "interval":
        return IntervalFacet()
    if name == "size":
        return VectorSizeFacet()
    if name == "constset":
        return ConstSetFacet()
    if name.startswith("constset<="):
        try:
            return ConstSetFacet(int(name[len("constset<="):]))
        except ValueError:
            pass
    if probe:
        return None
    raise PEError(f"unknown facet name {name!r} in genext manifest")


def suite_from_names(names: Sequence[str]) -> FacetSuite:
    return FacetSuite([facet_from_name(name) for name in names])


def pattern_vector(descriptor: Mapping[str, Any],
                   online: FacetSuite,
                   abstract: AbstractSuite) -> AbstractVector:
    """One analyzed input from its manifest descriptor (see
    :func:`repro.genext.emit.generalized_pattern`): the spec's
    :func:`~repro.offline.analysis.analysis_input`.  A literal's
    descriptor keeps only its sort, which is all its division
    depends on."""
    kind = descriptor.get("kind")
    if kind == "static":
        return abstract.static(descriptor.get("sort"))
    if kind == "dyn":
        item = online.unknown(None)
    elif kind == "spec":
        from repro.service.specs import parse_spec
        item = parse_spec(online, str(descriptor["text"]))
    else:
        raise PEError(f"unknown pattern descriptor {descriptor!r}")
    return analysis_input(abstract, item)


# -- the bound module ------------------------------------------------------

class GenextRuntime(OfflineWalk):
    """The bound state of one emitted genext module."""

    def __init__(self, manifest: Mapping[str, Any],
                 functions: Mapping[str, Callable]) -> None:
        if manifest.get("protocol") != GENEXT_PROTOCOL:
            raise PEError(
                f"genext protocol {manifest.get('protocol')!r} != "
                f"{GENEXT_PROTOCOL}; re-emit the module")
        self.manifest = dict(manifest)
        suite = suite_from_names(manifest["facets"])
        abstract = AbstractSuite(suite)
        from repro.service.results import _decode_config_value
        config = PEConfig(**{
            name: _decode_config_value(name, value)
            for name, value in dict(manifest.get("config") or {}).items()})
        pattern = [pattern_vector(d, suite, abstract)
                   for d in manifest["pattern"]]
        profiles = {
            entry["name"]: FunctionProfile(
                suite, entry["name"], entry["params"],
                entry.get("needed", ()), entry.get("occurrences", {}),
                functions[entry["name"]])
            for entry in manifest["functions"]}
        super().__init__(suite, abstract, pattern, config, profiles,
                         manifest["main"])

    # -- module-level cells -------------------------------------------
    def profile(self, name: str) -> FunctionProfile:
        return self.profiles[name]

    def const_pair(self, fn: str, value: Value) -> Pair:
        """A baked constant cell: the pair the offline walk builds at
        every visit of this literal."""
        return self.profiles[fn].const_pair(value)

    # -- driving -------------------------------------------------------
    def specialize_specs(self, specs: Sequence[str]) \
            -> SpecializationResult:
        """Convenience: parse spec strings against the baked suite."""
        from repro.service.specs import parse_specs
        return self.specialize(parse_specs(self.suite, specs))

    @staticmethod
    def enter(pf: FunctionProfile, ctx: Ctx, bound: Sequence[Pair]):
        """The callee's emitted function: a generator that yields the
        walk of each call it reaches."""
        return pf.body(ctx, *bound)


def residual_call(pf: FunctionProfile, ctx: Ctx, pairs: Sequence[Pair]):
    """A call to ``pf``'s function, taken at the emitted call site:
    the walk of the call, for the caller to yield."""
    decision, vectors = call_decision(pf, ctx, pairs)
    return walk_call(GenextRuntime.enter, pf, ctx, pairs, vectors,
                     decision)
