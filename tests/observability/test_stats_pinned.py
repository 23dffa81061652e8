"""Exact PEStats pins on reference workloads.

The caching layer must be semantically invisible: every counter in
:class:`repro.observability.stats.PEStats` measures the paper's cost
model, so the numbers here are pinned exactly and must be identical
with the suite caches enabled and disabled.  A change to any pinned
value means the specializer's work — not just its speed — changed.
"""

from __future__ import annotations

import pytest

from repro.facets import (
    FacetSuite, IntervalFacet, ParityFacet, SignFacet, VectorSizeFacet)
from repro.online.specializer import specialize_online
from repro.service.worker import execute_request
from repro.workloads import WORKLOADS


def _rich_suite(caching: bool) -> FacetSuite:
    return FacetSuite([SignFacet(), ParityFacet(), IntervalFacet(),
                       VectorSizeFacet()], caching=caching)


def _semantic_stats(stats) -> dict:
    """The counter dict minus wall-clock noise."""
    as_dict = stats.as_dict()
    as_dict.pop("phase_seconds", None)
    return as_dict


@pytest.mark.parametrize("caching", [True, False],
                         ids=["caching-on", "caching-off"])
class TestPinnedCounts:
    def test_fig8_inner_product(self, caching):
        """Figure 8: iprod with a known vector size and dynamic data."""
        suite = FacetSuite([VectorSizeFacet()], caching=caching)
        program = WORKLOADS["inner_product"].program()
        result = specialize_online(
            program, [suite.input("vector", size=3), suite.unknown(None)],
            suite)
        stats = result.stats
        assert stats.facet_evaluations == 27
        assert stats.folds_by_facet == {"size": 1, "pe": 7}
        assert stats.cache_hits == 0
        assert stats.generalizations == 0
        assert stats.prim_folds == 8
        assert stats.if_reductions == 4
        assert stats.unfoldings == 4
        assert stats.decisions == 28

    def test_power_static_exponent(self, caching):
        """Recursive workload: x^5 by repeated squaring, exponent static."""
        suite = _rich_suite(caching)
        program = WORKLOADS["power"].program()
        result = specialize_online(
            program, [suite.unknown("int"), suite.const_vector(5)], suite)
        stats = result.stats
        assert stats.facet_evaluations == 80
        assert stats.folds_by_facet == {"pe": 17}
        assert stats.cache_hits == 0
        assert stats.generalizations == 0
        assert stats.prim_folds == 17
        assert stats.if_reductions == 9
        assert stats.specializations == 2

    def test_fib_polyvariant_cache_hits(self, caching):
        """Recursive workload exercising the specialization cache."""
        suite = _rich_suite(caching)
        program = WORKLOADS["fib"].program()
        result = specialize_online(
            program, [suite.input("int", sign="pos")], suite)
        stats = result.stats
        assert stats.cache_hits == 3
        assert stats.generalizations == 0
        assert stats.facet_evaluations == 24
        assert stats.folds_by_facet == {}
        assert stats.specializations == 1
        assert stats.decisions == 14


def test_caching_does_not_change_any_counter():
    """Full-stats dict equality, caching on vs off, both workloads."""
    for name, inputs_of in (
            ("inner_product",
             lambda s: [s.input("vector", size=3), s.unknown(None)]),
            ("power",
             lambda s: [s.unknown("int"), s.const_vector(5)])):
        program = WORKLOADS[name].program()
        stats = []
        for caching in (True, False):
            suite = (FacetSuite([VectorSizeFacet()], caching=caching)
                     if name == "inner_product" else _rich_suite(caching))
            result = specialize_online(program, inputs_of(suite), suite)
            stats.append(_semantic_stats(result.stats))
        assert stats[0] == stats[1], name


def test_phase_timers_populate():
    suite = FacetSuite([VectorSizeFacet()])
    program = WORKLOADS["inner_product"].program()
    result = specialize_online(
        program, [suite.input("vector", size=3), suite.unknown(None)],
        suite)
    seconds = result.stats.phase_seconds
    assert set(seconds) == {"specialize", "simplify"}
    assert all(value >= 0.0 for value in seconds.values())


@pytest.mark.parametrize("engine", ["online", "offline", "genext",
                                    "simple"])
def test_every_engine_times_both_phases(engine):
    outcome = execute_request({
        "source": WORKLOADS["power"].source, "specs": ["dyn", "5"],
        "engine": engine})
    seconds = outcome["stats"]["phase_seconds"]
    assert set(seconds) == {"specialize", "simplify"}
    assert all(value >= 0.0 for value in seconds.values())
