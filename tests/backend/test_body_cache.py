"""The constant table and the compiled-body cache.

Lowering hoists every constant into a module-level table, one entry
per distinct literal text, so residuals that differ only in their
literals lower to one body text.  :func:`compile_program` compiles
the table on every call and each body once per process.  These tests
pin that such residuals share one compiled body yet each computes
with its own constants, that a body that does not compile is never
cached (and still ships no artifact through the service), that the
cache stays correct under concurrent compiles, and that artifacts
stored with their constants inline still load.
"""

from __future__ import annotations

import ast
import math
import threading
import warnings

import pytest

from repro.backend import compile_artifact, compile_program, lower_program
from repro.backend import emit
from repro.engine.errors import SpecializationError
from repro.lang.ast import Const, FunDef, If, Prim, Var
from repro.lang.errors import EvalError
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.program import Program
from repro.lang.values import Vector
from repro.service import SpecRequest, SpecializationService


def _program(*constants) -> Program:
    """``(define (f x) (if (< x c0) c1 (+ x c2)))``-like programs over
    arbitrary constant values, built from AST nodes (the reader has no
    spelling for vectors or non-finite floats)."""
    c0, c1, c2 = (Const(value) for value in constants)
    return Program.of([FunDef("f", ("x",), If(
        Prim("<", (Var("x"), c0)), c1, Prim("+", (Var("x"), c2))))])


def _vector_program(vector: Vector) -> Program:
    return Program.of([FunDef("f", ("i",), Prim("vref", (Const(vector),
                                                         Var("i"))))])


#: Pairs of programs equal up to their constants, with arguments.
SHAPES = {
    "int": (_program(0, 1, 2), _program(10, 11, 12), (5,)),
    "negative": (_program(-3, -1, -7), _program(-5, -2, -9), (-4,)),
    "float": (_program(0.5, 1.5, 2.5), _program(9.5, -1.25, 0.125),
              (3.0,)),
    "non-finite": (_program(math.inf, math.nan, -math.inf),
                   _program(math.inf, -math.inf, math.nan), (1.0,)),
    "bool": (Program.of([FunDef("f", ("x",), If(Var("x"), Const(True),
                                                Const(False)))]),
             Program.of([FunDef("f", ("x",), If(Var("x"), Const(False),
                                                Const(True)))]),
             (True,)),
    "vector": (_vector_program(Vector((1.0, -2.0, None))),
               _vector_program(Vector((4.0, 0.5, 7.0))), (2,)),
}


def _entry(unit, name="f"):
    return unit._entries[name][0]


def _same(left, right) -> bool:
    """Equal values, telling ``0.0`` from ``-0.0`` and matching NaNs."""
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right \
            and math.copysign(1.0, left) == math.copysign(1.0, right)
    return left == right


class TestConstantTable:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_programs_equal_up_to_constants_share_one_body(self, shape):
        first, second, args = SHAPES[shape]
        lowered = [lower_program(first), lower_program(second)]
        assert lowered[0].body == lowered[1].body
        assert lowered[0].table != lowered[1].table
        assert lowered[0].source == lowered[0].table + lowered[0].body
        units = [compile_program(first), compile_program(second)]
        # One compiled body: both modules' functions run the same code
        # object, each over its own constant table.
        assert _entry(units[0]).__code__ is _entry(units[1]).__code__
        for program, unit in zip((first, second), units):
            want = Interpreter(program).run(*args)
            assert _same(unit.run(*args), want)
        assert not _same(units[0].run(*args), units[1].run(*args))

    def test_bodies_hold_no_literals(self):
        lowered = lower_program(parse_program(
            "(define (f key) (if (= 15.0 key) 1 (- key -2)))"))
        assert "_k0 = 15.0" in lowered.table
        assert "_t1 = _p_eq(_k0, _v_key)" in lowered.body
        tree = ast.parse(lowered.body)
        numbers = [node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and type(node.value) in (int, float)]
        assert numbers == []

    def test_one_entry_per_distinct_literal_text(self):
        program = parse_program(_LITERALS)
        lowered = lower_program(program)
        table = lowered.table.splitlines()[2:]
        assert table == ["_k0 = 1", "_k1 = 1.0", "_k2 = 2", "_k3 = True",
                         "_k4 = 0", "_k5 = 0.0", "_k6 = -0.0"]
        unit = compile_program(program)
        for arg in (1, 2, -1, 5):
            assert _same(unit.run(arg), Interpreter(program).run(arg))
            assert type(unit.run(arg)) is type(
                Interpreter(program).run(arg))
        assert _same(unit.run(5), -0.0)

    def test_constant_free_programs_have_an_empty_table(self):
        lowered = lower_program(parse_program("(define (f x) x)"))
        assert lowered.table.splitlines() == [
            "# Python residual emitted by repro.backend "
            "(PPE compiled backend).",
            "# goal: f/1"]


#: ``1``, ``1.0`` and ``true`` are equal in Python, and so are ``0.0``
#: and ``-0.0``; each keeps its own table entry.
_LITERALS = """
    (define (f x)
      (if (= x 1) 1.0
          (if (= x 2) true
              (if (< x 0) 0.0 -0.0))))
"""


class TestNonBooleanConstantTest:
    def test_compiles_cleanly_and_raises_the_bad_test_error(self):
        program = parse_program("(define (f x) (if 5 x 2))")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            unit = compile_program(program)
        with pytest.raises(EvalError) as interpreted:
            Interpreter(program).run(3)
        with pytest.raises(EvalError) as compiled:
            unit.run(3)
        assert str(compiled.value) == str(interpreted.value)


def _nested_ifs(depth: int, base: int) -> str:
    """``depth`` nested tail-position ``if``s on a dynamic input, with
    thresholds from ``base`` (the lowered body nests one indentation
    level per ``if``)."""
    text = "x"
    for level in reversed(range(depth)):
        text = f"(if (< x {base + level}) {level} {text})"
    return f"(define (f x) {text})"


class TestBodiesThatDoNotCompile:
    def test_failed_compile_is_never_cached(self):
        for base in (1000, 1000, 2000):
            program = parse_program(_nested_ifs(120, base))
            before = emit._body_code.cache_info()
            with pytest.raises(SpecializationError,
                               match="IndentationError: too many levels"):
                compile_program(program)
            after = emit._body_code.cache_info()
            # Compiled again each time: the failure was not cached.
            assert (after.hits, after.misses) \
                == (before.hits, before.misses + 1)

    def test_service_ships_no_artifact_for_either_request(self):
        requests = [SpecRequest.create(_nested_ifs(120, base), ["dyn"],
                                       id=str(base))
                    for base in (1000, 2000)]
        assert requests[0].fingerprint != requests[1].fingerprint
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            for count, request in enumerate(requests, start=1):
                (result,) = service.run_batch([request])
                assert not result.degraded, result.reason
                assert result.compiled is None
                assert service.breakers["compile"].failures == count
            assert service.backend_stats.compiles == 0


class TestConcurrentCompiles:
    def test_threads_compiling_one_shape_each_get_their_constants(self):
        threads = 4
        barrier = threading.Barrier(threads)
        results: dict[int, list] = {}

        def work(index: int) -> None:
            barrier.wait()
            outcomes = []
            for round_ in range(20):
                base = 100 * index + round_
                program = _program(base, base + 1, base + 2)
                unit = compile_program(program)
                outcomes.append((unit.run(base - 1), unit.run(base)))
            results[index] = outcomes

        workers = [threading.Thread(target=work, args=(index,))
                   for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        for index in range(threads):
            assert results[index] == [
                (100 * index + round_ + 1, 2 * (100 * index + round_) + 2)
                for round_ in range(20)]
        hits = emit._body_code.cache_info().hits
        compile_program(_program(7, 8, 9))
        assert emit._body_code.cache_info().hits == hits + 1


class TestArtifactsFromEarlierBuilds:
    #: What ``(define (f x) (if (< x 0) -1.5 (* x 2)))`` lowered to
    #: before constants moved into the table.
    INLINE = ("# Python residual emitted by repro.backend (PPE compiled "
              "backend).\n# goal: f/1\n\n\ndef _f_f(_v_x):\n"
              "    _t1 = _p_lt(_v_x, 0)\n    if _t1 is True:\n"
              "        return -1.5\n    elif _t1 is False:\n"
              "        return _p_mul(_v_x, 2)\n    else:\n"
              "        _rt_bad_test(_t1)\n")

    def test_inline_constant_artifact_still_loads(self):
        artifact = {
            "fingerprint": "157d6c4f845864b7d3dc0e11064df5542790ab79"
                           "ca4ff2e2cae2ea76855dbe11",
            "python": self.INLINE,
            "goal": "f",
            "entries": {"f": ["_f_f", 1]},
        }
        unit = compile_artifact(artifact)
        assert unit.fingerprint == artifact["fingerprint"]
        assert unit.python_source == self.INLINE
        assert unit.run(-3) == -1.5
        assert unit.run(4) == 8
        current = compile_program(parse_program(
            "(define (f x) (if (< x 0) -1.5 (* x 2)))"))
        assert current.fingerprint != artifact["fingerprint"]
        assert current.run(-3) == -1.5 and current.run(4) == 8
