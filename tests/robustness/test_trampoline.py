"""Stack-safety regression: deep specializations must not rely on
``sys.setrecursionlimit``.

Every engine's walk is trampolined (an explicit stack of generators,
:mod:`repro.engine.trampoline`) — the online and offline ``_pe``
recursion, and the generator functions an emitted genext consists of
— so an unfold chain far past CPython's default recursion limit
specializes fine.  The old ``sys.setrecursionlimit(100_000)`` band-aid
is gone from the engines, and these tests monkeypatch the function to
*fail* if a specialization reaches for it again.

The walks that still manage the recursion limit for their own
recursion are the concrete interpreter (:mod:`repro.lang.interp`), the
compiled backend (:mod:`repro.backend.emit`) and the two offline
analyses (:mod:`repro.offline.analysis`,
:mod:`repro.offline.higher_order`).  So the offline and genext tests
analyze (and emit) before arming the guard, and only specialize under
it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.baselines.simple_pe import specialize_simple
from repro.facets.abstract.vector import AbstractSuite
from repro.genext import emit_genext, load_genext
from repro.lang.ast import Const
from repro.lang.parser import parse_program
from repro.offline.analysis import analysis_input, analyze
from repro.offline.specializer import specialize_offline
from repro.online.config import PEConfig
from repro.online.specializer import specialize_online
from repro.service.specs import parse_specs, simple_division
from repro.service.worker import default_suite
from repro.workloads import deep_static_loop

#: Far past the default recursion limit (1000); every unfold level
#: used to cost several Python frames.
DEPTH = 5000

CONFIG = PEConfig(unfold_fuel=10_000)


@pytest.fixture
def no_recursion_limit_tampering(monkeypatch):
    """A context manager inside which ``sys.setrecursionlimit`` fails
    the test."""
    def forbid(limit):
        raise AssertionError(
            f"engine called sys.setrecursionlimit({limit})")

    @contextmanager
    def guard():
        with monkeypatch.context() as patch:
            patch.setattr(sys, "setrecursionlimit", forbid)
            yield

    return guard


def _assert_folded(result):
    body = result.program.defs[0].body
    assert body == Const(DEPTH), \
        f"expected the loop to fold to {DEPTH}, got {body!r}"
    assert result.stats.degradations == 0


def test_online_specializes_deep_loop(no_recursion_limit_tampering):
    program = parse_program(deep_static_loop())
    suite = default_suite()
    inputs = parse_specs(suite, [str(DEPTH)])
    with no_recursion_limit_tampering():
        result = specialize_online(program, inputs, suite, CONFIG)
    _assert_folded(result)


def test_simple_pe_specializes_deep_loop(no_recursion_limit_tampering):
    program = parse_program(deep_static_loop())
    division = simple_division([str(DEPTH)])
    with no_recursion_limit_tampering():
        result = specialize_simple(program, division, CONFIG)
    _assert_folded(result)


def test_offline_specializes_deep_loop(no_recursion_limit_tampering):
    program = parse_program(deep_static_loop())
    suite = default_suite()
    inputs = parse_specs(suite, [str(DEPTH)])
    abstract = AbstractSuite(suite)
    analysis = analyze(program,
                       [analysis_input(abstract, item) for item in inputs],
                       abstract)
    with no_recursion_limit_tampering():
        result = specialize_offline(program, inputs, suite, analysis,
                                    CONFIG)
    _assert_folded(result)


def test_genext_specializes_deep_loop(no_recursion_limit_tampering):
    specs = [str(DEPTH)]
    module = load_genext(emit_genext(
        deep_static_loop(), specs,
        config={"unfold_fuel": CONFIG.unfold_fuel}).python_source)
    with no_recursion_limit_tampering():
        result = module.specialize_specs(specs)
    _assert_folded(result)
