"""Specialization cache (``Sf``) unit tests."""

import pytest

from repro.facets import FacetSuite, SignFacet
from repro.lang.ast import FunDef, Var
from repro.lang.values import INT
from repro.online.cache import (
    DYNAMIC, SpecCache, dynamic_positions, generalization_rung,
    make_key)


@pytest.fixture
def suite():
    return FacetSuite([SignFacet()])


class TestKeys:
    def test_constants_pinned(self, suite):
        key = make_key(suite, "f", [suite.const_vector(3),
                                    suite.unknown(INT)])
        assert key[0] == "f"
        assert key[1][0] == "c"
        assert key[2][0] == DYNAMIC

    def test_facet_components_in_key(self, suite):
        pos = suite.input(INT, sign="pos")
        neg = suite.input(INT, sign="neg")
        assert make_key(suite, "f", [pos]) != make_key(suite, "f",
                                                       [neg])

    def test_generalization_rung_1_drops_facets(self, suite):
        pos = suite.input(INT, sign="pos")
        neg = suite.input(INT, sign="neg")
        assert make_key(suite, "f", [pos], generalization=1) \
            == make_key(suite, "f", [neg], generalization=1)

    def test_generalization_rung_1_keeps_constants(self, suite):
        a = suite.const_vector(1)
        b = suite.const_vector(2)
        assert make_key(suite, "f", [a], generalization=1) \
            != make_key(suite, "f", [b], generalization=1)

    def test_generalization_rung_2_drops_everything(self, suite):
        a = suite.const_vector(1)
        b = suite.input(INT, sign="neg")
        assert make_key(suite, "f", [a], generalization=2) \
            == make_key(suite, "f", [b], generalization=2)

    def test_same_constant_different_sort_distinct(self, suite):
        assert make_key(suite, "f", [suite.const_vector(1)]) \
            != make_key(suite, "f", [suite.const_vector(1.0)])


class TestEmptySuite:
    """Without facets two non-constants cannot be told apart: Figure
    2's one-rung ``Sf``."""

    def test_non_constants_key_without_sort(self):
        empty = FacetSuite()
        assert make_key(empty, "f", [empty.unknown(INT)]) \
            == make_key(empty, "f", [empty.unknown(None)]) \
            == ("f", DYNAMIC)

    def test_facets_keep_the_sort(self, suite):
        assert make_key(suite, "f", [suite.unknown(INT)]) \
            != make_key(suite, "f", [suite.unknown(None)])

    def test_ladder_skips_rung_1(self, suite):
        cache = SpecCache(reserved_names=[])
        for key in range(2):
            cache.register(key, "f", (), ())
        empty = FacetSuite()
        assert generalization_rung(empty, cache, "f", 3, False) == 0
        assert generalization_rung(empty, cache, "f", 2, False) == 2
        assert generalization_rung(suite, cache, "f", 2, False) == 1
        assert generalization_rung(suite, cache, "f", 1, False) == 2


class TestDynamicPositions:
    def test_constants_dropped(self, suite):
        vectors = [suite.const_vector(1), suite.unknown(INT),
                   suite.const_vector(2)]
        assert dynamic_positions(vectors) == (1,)

    def test_rung_2_keeps_all(self, suite):
        vectors = [suite.const_vector(1), suite.unknown(INT)]
        assert dynamic_positions(vectors, generalization=2) == (0, 1)


class TestSpecCache:
    def test_register_and_lookup(self):
        cache = SpecCache(reserved_names=["f"])
        entry = cache.register("key1", "f", (0,), ("x",))
        assert cache.lookup("key1") is entry
        assert cache.lookup("key2") is None

    def test_fresh_names_avoid_reserved(self):
        cache = SpecCache(reserved_names=["f", "f!1"])
        entry = cache.register("k", "f", (), ())
        assert entry.name not in ("f", "f!1")

    def test_names_unique_across_registrations(self):
        cache = SpecCache(reserved_names=[])
        names = {cache.register(i, "f", (), ()).name
                 for i in range(10)}
        assert len(names) == 10

    def test_variants_of(self):
        cache = SpecCache(reserved_names=[])
        cache.register(1, "f", (), ())
        cache.register(2, "f", (), ())
        cache.register(3, "g", (), ())
        assert cache.variants_of("f") == 2
        assert cache.variants_of("g") == 1

    def test_residual_defs_in_creation_order(self):
        cache = SpecCache(reserved_names=[])
        first = cache.register(1, "f", (), ())
        second = cache.register(2, "g", (), ())
        cache.finish(second, FunDef(second.name, (), Var("x")))
        cache.finish(first, FunDef(first.name, (), Var("y")))
        defs = cache.residual_defs()
        assert [d.name for d in defs] == [first.name, second.name]

    def test_unfinished_entries_skipped(self):
        cache = SpecCache(reserved_names=[])
        cache.register(1, "f", (), ())
        assert cache.residual_defs() == []
