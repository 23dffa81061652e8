"""The facet framework: Definitions 4-7 of the paper.

* :mod:`repro.facets.base` — the :class:`Facet` protocol (Definition 4);
* :mod:`repro.facets.pe` — the partial-evaluation facet (Definition 7);
* :mod:`repro.facets.vector` — products of facets (Definitions 5-6) and
  the :class:`FacetVector` values threaded by the online specializer;
* :mod:`repro.facets.library` — shipped facets;
* :mod:`repro.facets.abstract` — abstract facets for the offline level
  (Definitions 8-10).
"""

from repro.facets.base import Facet, FacetOpFn, strictly
from repro.facets.pe import PE_FACET, PartialEvaluationFacet
from repro.facets.vector import FacetSuite, FacetVector, PrimOutcome
from repro.facets.library import (
    ConstSetFacet, IntervalFacet, ParityFacet, SignFacet,
    VectorSizeFacet)


def default_suite() -> FacetSuite:
    """Every shipped facet but the constant-set one: the suite the CLI,
    the service workers and emitted generating extensions use."""
    return FacetSuite([SignFacet(), ParityFacet(), IntervalFacet(),
                       VectorSizeFacet()])


__all__ = [
    "Facet", "FacetOpFn", "strictly",
    "PE_FACET", "PartialEvaluationFacet",
    "FacetSuite", "FacetVector", "PrimOutcome",
    "ConstSetFacet", "IntervalFacet", "ParityFacet", "SignFacet",
    "VectorSizeFacet", "default_suite",
]
