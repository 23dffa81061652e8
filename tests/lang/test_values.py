"""Concrete value domain unit tests."""

import pytest

from repro.lang.errors import EvalError
from repro.lang.values import (
    BOOL, FLOAT, INT, VECTOR, Vector, format_value, is_value, sort_of,
    values_equal)


class TestSorts:
    def test_sort_of_int(self):
        assert sort_of(3) == INT

    def test_sort_of_bool_not_int(self):
        # bool is a subclass of int in Python; the domain keeps them
        # apart.
        assert sort_of(True) == BOOL

    def test_sort_of_float(self):
        assert sort_of(2.5) == FLOAT

    def test_sort_of_vector(self):
        assert sort_of(Vector.of([1.0])) == VECTOR

    def test_sort_of_non_value(self):
        with pytest.raises(EvalError):
            sort_of("hello")

    def test_is_value(self):
        assert is_value(0)
        assert is_value(False)
        assert is_value(0.0)
        assert is_value(Vector.empty(0))
        assert not is_value("x")
        assert not is_value(None)


class TestValuesEqual:
    def test_same_sort_equal(self):
        assert values_equal(3, 3)
        assert values_equal(2.5, 2.5)

    def test_cross_sort_never_equal(self):
        assert not values_equal(1, 1.0)
        assert not values_equal(1, True)
        assert not values_equal(0, False)

    def test_vectors(self):
        assert values_equal(Vector.of([1.0]), Vector.of([1.0]))
        assert not values_equal(Vector.of([1.0]), Vector.of([2.0]))


class TestVector:
    def test_empty_has_holes(self):
        v = Vector.empty(2)
        assert v.size == 2
        with pytest.raises(EvalError, match="unset"):
            v.ref(1)

    def test_negative_size_rejected(self):
        with pytest.raises(EvalError):
            Vector.empty(-1)

    def test_one_based_indexing(self):
        v = Vector.of([10.0, 20.0])
        assert v.ref(1) == 10.0
        assert v.ref(2) == 20.0

    def test_index_bounds(self):
        v = Vector.of([1.0])
        with pytest.raises(EvalError, match="out of range"):
            v.ref(0)
        with pytest.raises(EvalError, match="out of range"):
            v.ref(2)

    def test_bool_index_rejected(self):
        with pytest.raises(EvalError):
            Vector.of([1.0]).ref(True)

    def test_update_is_persistent(self):
        v = Vector.of([1.0, 2.0])
        w = v.update(1, 9.0)
        assert v.ref(1) == 1.0
        assert w.ref(1) == 9.0

    def test_update_fills_hole(self):
        v = Vector.empty(1).update(1, 5.0)
        assert v.ref(1) == 5.0

    def test_str(self):
        assert str(Vector.of([1.0])) == "#(1.0)"
        assert str(Vector.empty(2)) == "#(_ _)"


class TestFormatting:
    def test_ints(self):
        assert format_value(3) == "3"
        assert format_value(-7) == "-7"

    def test_bools(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_floats_roundtrip(self):
        assert format_value(2.5) == "2.5"
        assert format_value(1.0) == "1.0"

    def test_float_without_point_gets_one(self):
        # repr of some floats has no dot (e.g. 1e30); ensure lexer
        # round-trips.
        text = format_value(1e30)
        assert "." in text or "e" in text
