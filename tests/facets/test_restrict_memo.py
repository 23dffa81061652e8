"""Facet restriction is memoized on the suite, transparently.

The offline walk and an emitted genext restrict a vector to the facets
a function needs at every literal, fold and call argument.
:meth:`FacetSuite.restrict` memoizes that on the vector's identity and
the keep-mask.  The memo may change no output: the offline and genext
engines give the same residuals and statistics over a suite without
caches as over a warm one, and a memoized restriction is exactly the
vector :meth:`FacetSuite.make_vector` builds.
"""

from __future__ import annotations

import functools
import gc
import itertools
import weakref

import pytest

from repro.facets import FacetSuite, default_suite
from repro.facets.abstract.vector import AbstractSuite
from repro.facets.vector import FacetVector
from repro.genext import emit_genext, load_genext
from repro.genext import runtime as genext_runtime
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.values import Vector
from repro.lattice.pevalue import PEValue
from repro.offline.analysis import analysis_input, analyze
from repro.offline.specializer import OfflineSpecializer
from repro.service.specs import parse_specs
from repro.workloads import WORKLOADS

#: (workload, spec rows sharing one division): restricted profiles
#: (``power`` needs no facet, ``inner_product`` only ``size``) and
#: repeated literals, so the warm suite serves memo hits.
CORPUS = (
    ("power", (("dyn", "5"), ("dyn", "11"), ("dyn", "5"))),
    ("inner_product", (("size=4", "size=4"), ("size=4", "size=4"))),
    ("poly_eval", (("size=5", "dyn"), ("size=3", "dyn"))),
    ("binary_search", (("size=7", "dyn"),)),
    ("sign_pipeline", (("sign=pos", "dyn"), ("sign=pos", "dyn"))),
    ("clamped_lookup", (("dyn", "interval=2:3", "1", "4"),
                        ("dyn", "interval=2:3", "2", "5"))),
    ("gcd", (("48", "dyn"), ("40", "dyn"))),
)


def _observable(result) -> tuple:
    stats = result.stats.as_dict()
    stats.pop("phase_seconds", None)
    return pretty_program(result.program), result.goal_params, stats


def _offline(suite: FacetSuite, source: str, rows) -> list[tuple]:
    program = parse_program(source)
    abstract = AbstractSuite(suite)
    outcomes = []
    for specs in rows:
        inputs = parse_specs(suite, list(specs))
        pattern = [analysis_input(abstract, item) for item in inputs]
        analysis = analyze(program, pattern, abstract)
        result = OfflineSpecializer(analysis, suite).specialize(inputs)
        outcomes.append(_observable(result))
    return outcomes


def _genext(text: str, rows, caching: bool, monkeypatch) -> list[tuple]:
    with monkeypatch.context() as patch:
        if not caching:
            patch.setattr(genext_runtime, "FacetSuite",
                          functools.partial(FacetSuite, caching=False))
        module = load_genext(text)
    suite = module.runtime.suite
    assert suite.caching is caching
    outcomes = [_observable(module.specialize_specs(list(specs)))
                for specs in rows]
    if not caching:
        assert not suite._restricted
    return outcomes


@pytest.mark.parametrize("name, rows", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_offline_and_genext_are_transparent_to_the_memo(name, rows,
                                                        monkeypatch):
    source = WORKLOADS[name].source
    cold = FacetSuite(default_suite().facets, caching=False)
    warm = default_suite()
    want = _offline(cold, source, rows)
    assert not cold._restricted and cold.memo_size() == 0
    assert _offline(warm, source, rows) == want
    # Again over the warm suite: now the memo serves the restrictions.
    assert _offline(warm, source, rows) == want
    text = emit_genext(source, list(rows[0])).python_source
    assert _genext(text, rows, False, monkeypatch) == want
    assert _genext(text, rows * 2, True, monkeypatch) == want * 2


def test_the_offline_walk_restricts_through_the_memo():
    suite = default_suite()
    _offline(suite, WORKLOADS["power"].source, (("dyn", "5"),))
    size = len(suite._restricted)
    assert size > 0
    hits = suite.cache_stats.vector_hits
    _offline(suite, WORKLOADS["power"].source, (("dyn", "5"),))
    assert len(suite._restricted) == size
    assert suite.cache_stats.vector_hits > hits


def _vectors(suite: FacetSuite) -> list[FacetVector]:
    return [
        suite.const_vector(3), suite.const_vector(-4),
        suite.const_vector(0.0), suite.const_vector(-0.0),
        suite.const_vector(2.5), suite.const_vector(True),
        suite.const_vector(Vector((1.0, None))),
        suite.unknown("int"), suite.unknown(None),
        suite.input("int", sign=suite.facet_named("sign").domain.top),
        suite.input("vector", size=suite.facet_named("size")
                    .abstract(Vector((1.0, 2.0, 3.0)))),
    ]


def _expected(suite: FacetSuite, vector: FacetVector, keep) -> FacetVector:
    user = tuple(component if kept else facet.domain.top
                 for kept, facet, component
                 in zip(keep, suite.facets_for(vector.sort), vector.user))
    return suite.make_vector(vector.sort, vector.pe, user)


def test_memoized_restriction_is_what_make_vector_builds():
    suite = default_suite()
    cold = FacetSuite(suite.facets, caching=False)
    for vector in _vectors(suite):
        width = len(suite.facets_for(vector.sort))
        for keep in itertools.product((False, True), repeat=width):
            first = suite.restrict(vector, keep)
            stats = suite.cache_stats
            hits, misses = stats.vector_hits, stats.vector_misses
            again = suite.restrict(vector, keep)
            # A memo hit counts as one vector hit, nothing else.
            assert (stats.vector_hits, stats.vector_misses) \
                == (hits + 1, misses)
            assert again is first
            assert first is _expected(suite, vector, keep)
            assert cold.restrict(vector, keep) == first
    assert not cold._restricted


def test_memo_counts_toward_memo_size():
    suite = default_suite()
    vector = suite.const_vector(7)
    keep = (False,) * len(suite.facets_for("int"))
    before = suite.memo_size()
    suite.restrict(vector, keep)
    after = suite.memo_size()
    suite.restrict(vector, keep)
    assert after > before
    assert suite.memo_size() == after
    assert (id(vector), keep) in suite._restricted


def _foreign(suite: FacetSuite, value: int) -> FacetVector:
    """A vector the suite never interned."""
    return FacetVector("int", PEValue.const(value),
                       suite.const_vector(value).user)


def test_memo_keeps_its_vector_alive():
    suite = default_suite()
    keep = (True, False, True)[:len(suite.facets_for("int"))]
    vector = _foreign(suite, 11)
    ref = weakref.ref(vector)
    suite.restrict(vector, keep)
    del vector
    gc.collect()
    # The entry holds its vector, so no other vector can take its id
    # while the entry lives.
    assert ref() is not None


def test_an_entry_whose_id_was_reused_never_matches():
    suite = default_suite()
    keep = (False,) * len(suite.facets_for("int"))
    stale = _foreign(suite, 1)
    fresh = _foreign(suite, 2)
    # Plant the entry a dead vector at ``fresh``'s address would have
    # left behind.
    suite._restricted[(id(fresh), keep)] = (
        stale, suite.restrict(stale, keep))
    restricted = suite.restrict(fresh, keep)
    assert restricted.pe == PEValue.const(2)
    assert restricted is _expected(suite, fresh, keep)
    assert suite._restricted[(id(fresh), keep)] == (fresh, restricted)
