"""The shape cache and the per-literal table check.

One pre-order walk (:func:`repro.backend.lower.shape_of`) reads a
residual's shape, the program with its constants abstracted, and its
literal texts in slot order.  :func:`lower_program` lowers each shape
once per process and, on a hit, writes only the constant table;
:func:`compile_program` binds each ``_kN`` from a compiled literal
instead of compiling the table whole.  These tests pin that residuals
of one shape lower once, that a shape tells constant-equality patterns
apart, that the cached path emits what an uncached lowering emits over
the corpus on every engine, and that both caches stay bounded.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.backend import compile_program, emit, lower, lower_program
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.service import worker
from repro.service.worker import execute_request

from tests.golden.test_golden_residuals import CASES

ENGINES = ("online", "offline", "genext", "simple")


@pytest.fixture
def empty_shapes(monkeypatch):
    """A shape cache of this test's own, and a count of the shapes
    actually lowered."""
    monkeypatch.setattr(lower, "_shapes", type(lower._shapes)())
    lowered = []
    real = lower._Lowerer.lower

    def counting(self):
        lowered.append(self.program)
        return real(self)

    monkeypatch.setattr(lower._Lowerer, "lower", counting)
    return lowered


def _uncached_source(program) -> str:
    """The module text of a lowering that takes nothing from the shape
    cache and numbers the table in its own traversal, as the lowerer
    did before shapes: the text every artifact must keep."""
    lowerer = lower._Lowerer(program)
    header, body, _, _ = lowerer.lower()
    table = "".join(f"\n{name} = {text}"
                    for text, name in lowerer.constants.items())
    return f"{header}{table}\n{body}"


class TestOneLoweringPerShape:
    def test_one_shape_one_equality_pattern_lowers_once(
            self, empty_shapes):
        first = parse_program("(define (f x) (if (< x 0) 1 (+ x 2)))")
        second = parse_program(
            "(define (f x) (if (< x 10) 11 (+ x 12)))")
        assert lower.shape_of(first)[0] == lower.shape_of(second)[0]
        lowered = [lower_program(first), lower_program(second)]
        assert empty_shapes == [first]
        assert lowered[0].body == lowered[1].body
        assert lowered[1].literals == ("10", "11", "12")
        assert lowered[1].source == _uncached_source(second)
        assert compile_program(second).run(3) == 11
        assert compile_program(second).run(30) == 42

    @pytest.mark.parametrize("order", ["same-first", "distinct-first"])
    def test_constant_equality_patterns_get_different_bodies(
            self, empty_shapes, order):
        same = parse_program("(define (f x) (+ x (+ 1 1)))")
        distinct = parse_program("(define (f x) (+ x (+ 1 2)))")
        programs = [same, distinct] if order == "same-first" \
            else [distinct, same]
        lowered = [lower_program(program) for program in programs]
        assert len(empty_shapes) == 2
        assert lowered[0].body != lowered[1].body
        for program, result in zip(programs, lowered):
            assert result.source == _uncached_source(program)
            assert compile_program(program).run(0) \
                == Interpreter(program).run(0)
        assert compile_program(same).run(0) == 2
        assert compile_program(distinct).run(0) == 3

    def test_names_and_arities_are_part_of_the_shape(self, empty_shapes):
        texts = ["(define (f x) (+ x 1))", "(define (f y) (+ y 1))",
                 "(define (g x) (+ x 1))", "(define (f x) (- x 1))",
                 "(define (f x y) (+ x 1))"]
        keys = {lower.shape_of(parse_program(text))[0] for text in texts}
        assert len(keys) == len(texts)


def _variants(specs):
    """The case's specs, then with every integer literal raised by one
    and by two: residuals of one shape under other constants, and of
    other shapes where the literal drives unfolding."""
    def bump(spec, by):
        try:
            return str(int(spec) + by)
        except ValueError:
            return spec
    return [tuple(bump(spec, by) for spec in specs) for by in (0, 1, 2)]


class TestCorpusSweep:
    def test_cached_artifacts_equal_an_uncached_lowering(
            self, monkeypatch, empty_shapes):
        compiled = []
        real = worker.compile_program

        def spy(program):
            unit = real(program)
            compiled.append((program, unit.artifact()))
            return unit

        monkeypatch.setattr(worker, "compile_program", spy)
        for case in CASES:
            for engine in ENGINES:
                for specs in _variants(case.specs):
                    payload = case.payload()
                    payload.update(specs=list(specs), engine=engine,
                                   backend="compiled", inline=True)
                    execute_request(payload)
        assert len(compiled) > 150
        # Some residuals reused a shape, so the sweep covers hits.
        assert len(empty_shapes) < len(compiled)
        for program, artifact in compiled:
            want = _uncached_source(program)
            assert artifact["python"] == want
            assert artifact["fingerprint"] \
                == hashlib.sha256(want.encode("utf-8")).hexdigest()
            # The walk numbers the table in the lowerer's own order.
            lowerer = lower._Lowerer(program)
            lowerer.lower()
            assert tuple(lowerer.constants) \
                == lower.shape_of(program)[1]


class TestBoundedCaches:
    def test_shape_cache_keeps_the_most_recent_shapes(
            self, monkeypatch, empty_shapes):
        monkeypatch.setattr(lower, "_SHAPE_CACHE_CAP", 4)
        programs = [parse_program(f"(define (f x) ({op} x 1))")
                    for op in ("+", "-", "*", "<", ">", "=")]
        for program in programs:
            lower_program(program)
        assert len(lower._shapes) == 4
        assert list(lower._shapes) \
            == [lower.shape_of(program)[0] for program in programs[2:]]
        lower_program(programs[2])      # refreshed: now the newest
        lower_program(programs[0])      # lowered again: evicts "<"
        assert len(empty_shapes) == 7
        assert list(lower._shapes)[-2:] == [
            lower.shape_of(programs[2])[0],
            lower.shape_of(programs[0])[0]]
        assert lower.shape_of(programs[3])[0] not in lower._shapes

    def test_literal_cache_stays_within_its_cap(self):
        cap = emit._LITERAL_CACHE_CAP
        assert emit._literal_code.cache_info().maxsize == cap
        emit._literal_code.cache_clear()
        for value in range(cap + 10):
            unit = compile_program(
                parse_program(f"(define (f x) (+ x {value}))"))
            assert unit.run(1) == value + 1
        info = emit._literal_code.cache_info()
        assert info.currsize == cap
        assert info.misses == cap + 10
