"""Fused genext residuals are byte-identical to the offline specializer's.

Both tiers consume the same generalized-pattern analysis, so their
residuals must agree to the byte — the invariant that lets the service
answer from whichever tier is warm without changing results.  It is
checked twice: over a hand-built analysis of the division
(:func:`_tiers`), and on the path that serves traffic, the worker's
:func:`~repro.service.worker.execute_request` for engines ``offline``
and ``genext``, where the offline engine derives its own division.
The compiled backend, fed the genext residual AST directly (what the
service worker does), is additionally checked against the interpreter
on sample dynamic arguments.
"""

from __future__ import annotations

import pytest

from repro.backend import compile_program
from repro.facets.abstract.vector import AbstractSuite
from repro.genext import emit_genext, load_genext
from repro.genext.emit import default_suite, generalized_pattern
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.values import Vector, values_approx_equal
from repro.offline.analysis import analyze
from repro.offline.specializer import OfflineSpecializer
from repro.service.specs import parse_specs
from repro.service.worker import execute_request
from repro.workloads import WORKLOADS

CORPUS = (
    ("power", ("dyn", "5")),
    ("power", ("dyn", "11")),
    ("inner_product", ("size=4", "size=4")),
    ("inner_product", ("size=9", "size=9")),
    ("poly_eval", ("size=5", "dyn")),
    ("binary_search", ("size=7", "dyn")),
    ("gcd", ("270", "192")),
    ("alternating_sum", ("size=6",)),
)


#: Fully static ``power`` pairs: each folds to one constant on every
#: engine.  An analysis of the literals' exact images runs out of
#: cells on these and residualizes the calls genext folds.
POWER_STATIC = (("3", "5"), ("414", "7"), ("2", "10"))


def _tiers(source: str, specs: tuple[str, ...]):
    """One generalized analysis shared by both tiers."""
    program = parse_program(source)
    suite = default_suite()
    abstract = AbstractSuite(suite)
    pattern, _, _ = generalized_pattern(suite, abstract, list(specs))
    analysis = analyze(program, list(pattern), abstract)
    inputs = parse_specs(suite, list(specs))
    offline = OfflineSpecializer(analysis, suite).specialize(inputs)
    module = load_genext(
        emit_genext(source, list(specs)).python_source)
    fused = module.specialize_specs(list(specs))
    return offline, fused, module


@pytest.mark.parametrize("workload,specs", CORPUS,
                         ids=lambda value: str(value))
def test_residuals_are_byte_identical(workload, specs):
    source = WORKLOADS[workload].source
    offline, fused, _module = _tiers(source, specs)
    assert pretty_program(fused.program) \
        == pretty_program(offline.program)


def test_compiled_path_agrees_with_interpreter():
    source = WORKLOADS["inner_product"].source
    specs = ("size=4", "size=4")
    _offline, fused, _module = _tiers(source, specs)
    compiled = compile_program(fused.program)
    left = Vector.of((1.0, 2.0, 3.0, 4.0))
    right = Vector.of((5.0, 6.0, 7.0, 8.0))
    want = Interpreter(fused.program).run(left, right)
    got = compiled.run(left, right)
    assert values_approx_equal(want, got)
    artifact = compiled.artifact()
    assert set(artifact) >= {"entries", "fingerprint", "goal",
                             "python"}


def test_fused_stats_match_offline():
    """The decision trace is preserved by fusion: the emitted module
    executes the same decisions, just without the annotated-AST
    dispatch — every counter agrees, steps and budget usage
    included."""
    for workload, specs in CORPUS:
        offline, fused, _module = _tiers(WORKLOADS[workload].source,
                                         specs)
        want = offline.stats.as_dict()
        got = fused.stats.as_dict()
        want.pop("phase_seconds")
        got.pop("phase_seconds")
        assert got == want, (workload, specs)


def _served(source: str, specs: tuple[str, ...], engine: str) -> dict:
    outcome = execute_request({"source": source, "specs": list(specs),
                               "engine": engine})
    assert not outcome.get("failed"), outcome
    outcome["stats"].pop("phase_seconds")
    return outcome


@pytest.mark.parametrize(
    "workload,specs",
    CORPUS + tuple(("power", specs) for specs in POWER_STATIC),
    ids=lambda value: str(value))
def test_served_offline_and_genext_agree(workload, specs):
    """The worker's two amortized engines analyze one division, so
    they return one residual with identical statistics."""
    source = WORKLOADS[workload].source
    offline = _served(source, specs, "offline")
    genext = _served(source, specs, "genext")
    assert genext["residual"] == offline["residual"]
    assert genext["goal_params"] == offline["goal_params"]
    assert genext["stats"] == offline["stats"]


@pytest.mark.parametrize("specs", POWER_STATIC, ids=str)
def test_static_power_is_one_constant_on_every_engine(specs):
    source = WORKLOADS["power"].source
    base, exponent = (int(text) for text in specs)
    want = f"(define (power) {base ** exponent})\n"
    for engine in ("online", "offline", "genext", "simple"):
        assert _served(source, specs, engine)["residual"] == want, \
            engine
