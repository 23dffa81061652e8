"""Adversarial-program robustness: known-exploding programs must
terminate inside their budgets with a *correct* degraded residual.

The governed-engine contract under test: crossing a soft budget never
raises — the engine widens the offending call to Dynamic, records a
:class:`~repro.engine.budget.DegradeEvent` and keeps going.  The
differential oracle pins the other half of the contract: the degraded
residual still agrees with the source program on every dynamic input.

The fast tests run the family against a scaled-down step budget so all
four engines can be exercised in well under a second per case; the
out-of-the-box guarantee (default ``PEConfig`` budgets, ~1M steps)
takes tens of seconds per case and runs when
``REPRO_ADVERSARIAL_FULL=1`` — the CI ``bench`` job sets it.
"""

from __future__ import annotations

import os
from dataclasses import fields

import pytest

from repro.baselines.simple_pe import specialize_simple
from repro.engine.budget import DIMENSIONS
from repro.engine.errors import BudgetExhausted
from repro.genext import emit_genext, load_genext
from repro.lang.interp import run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.offline.specializer import specialize_offline
from repro.online.config import PEConfig
from repro.online.specializer import specialize_online
from repro.service.specs import parse_specs, simple_division
from repro.service.worker import default_suite
from repro.workloads import ADVERSARIAL_CASES

ENGINES = ("online", "offline", "simple", "genext")

#: Small enough for sub-second tests, large enough that the widened
#: aftermath still produces a meaningful residual.
SCALED = PEConfig(max_steps=10_000)

CASES = {case.name: case for case in ADVERSARIAL_CASES}


def _specialize(case, engine, config):
    program = parse_program(case.source)
    if engine == "simple":
        result = specialize_simple(program, simple_division(["dyn"]),
                                   config)
        return program, result
    if engine == "genext":
        module = load_genext(emit_genext(
            case.source, ["dyn"], config=_wire(config)).python_source)
        return program, module.specialize_specs(["dyn"])
    suite = default_suite()
    inputs = parse_specs(suite, ["dyn"])
    if engine == "online":
        return program, specialize_online(program, inputs, suite,
                                          config)
    return program, specialize_offline(program, inputs, suite,
                                       config=config)


def _wire(config: PEConfig | None) -> dict:
    """``config`` as the wire mapping an emitted module bakes in: the
    fields that differ from the defaults."""
    if config is None:
        return {}
    default = PEConfig()
    return {field.name: getattr(config, field.name)
            for field in fields(PEConfig)
            if getattr(config, field.name)
            != getattr(default, field.name)}


def _assert_degraded_but_correct(case, program, result):
    stats = result.stats
    assert stats.degradations > 0, \
        f"{case.name}: expected budget degradations"
    assert stats.degradations >= len(stats.degrade_events)  # capped log
    for event in stats.degrade_events:
        assert event.reason in DIMENSIONS
        assert event.action in ("widened-call", "residual-call")
        assert event.site
    # The differential oracle: degraded means *less specialized*,
    # never *less correct*.
    for argument in case.oracle_args:
        assert run_program(program, argument) \
            == run_program(result.program, argument), \
            f"{case.name}: residual diverges from source on {argument}"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", ADVERSARIAL_CASES,
                         ids=lambda case: case.name)
def test_terminates_and_agrees_under_scaled_budget(case, engine):
    program, result = _specialize(case, engine, SCALED)
    _assert_degraded_but_correct(case, program, result)
    assert result.stats.degradations_by_reason.get("steps", 0) > 0


def test_pingpong_degrades_at_both_sites():
    """Mutual recursion degrades wherever the budget catches it — the
    event log names the actual source functions."""
    case = CASES["mutual-pingpong"]
    _, result = _specialize(case, "online", SCALED)
    sites = {event.site for event in result.stats.degrade_events}
    assert sites & {"ping", "pong"}


@pytest.mark.parametrize("engine", ENGINES)
def test_residual_node_budget_fires(engine):
    case = CASES["branchy-descent"]
    program, result = _specialize(
        case, engine, PEConfig(max_steps=None,
                                 max_residual_nodes=2_000))
    _assert_degraded_but_correct(case, program, result)
    assert result.stats.degradations_by_reason.get(
        "residual_nodes", 0) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_unfold_depth_budget_records_residual_calls(engine):
    """The visible unfold-depth cap refuses the unfold but keeps the
    call's precision: action is ``residual-call``, not a widening."""
    case = CASES["branchy-descent"]
    program, result = _specialize(
        case, engine, PEConfig(max_steps=None, max_unfold_depth=6))
    stats = result.stats
    assert stats.degradations_by_reason.get("unfold_depth", 0) > 0
    assert all(event.action == "residual-call"
               for event in stats.degrade_events
               if event.reason == "unfold_depth")
    for argument in case.oracle_args:
        assert run_program(program, argument) \
            == run_program(result.program, argument)


@pytest.mark.parametrize("engine", ENGINES)
def test_wall_clock_budget_fires(engine):
    case = CASES["branchy-descent"]
    program, result = _specialize(
        case, engine, PEConfig(max_steps=None,
                                 max_wall_seconds=0.05))
    _assert_degraded_but_correct(case, program, result)
    assert result.stats.degradations_by_reason.get("wall_clock", 0) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_strict_budgets_raise_instead(engine):
    case = CASES["branchy-descent"]
    with pytest.raises(BudgetExhausted) as info:
        _specialize(case, engine,
                    PEConfig(max_steps=1_000, strict_budgets=True))
    assert info.value.dimension == "steps"
    assert info.value.limit == 1_000


@pytest.mark.parametrize("case", ADVERSARIAL_CASES,
                         ids=lambda case: case.name)
def test_genext_degrades_like_offline(case):
    """The emitted generating extension meters the offline
    specializer's budget protocol: same widened residual, same
    degradation log."""
    _, offline = _specialize(case, "offline", SCALED)
    _, genext = _specialize(case, "genext", SCALED)
    assert pretty_program(genext.program) \
        == pretty_program(offline.program)
    assert genext.stats.degrade_events == offline.stats.degrade_events
    assert genext.stats.budget_used == offline.stats.budget_used


def test_budget_usage_is_reported():
    case = CASES["branchy-descent"]
    _, result = _specialize(case, "online", SCALED)
    used = result.stats.budget_used
    assert used["steps"] > 10_000  # sticky: counted past the limit
    assert used["residual_nodes"] > 0
    snapshot = result.stats.as_dict()["budget"]
    assert snapshot["degradations"] == result.stats.degradations
    assert snapshot["events"]


@pytest.mark.skipif(os.environ.get("REPRO_ADVERSARIAL_FULL") != "1",
                    reason="slow; set REPRO_ADVERSARIAL_FULL=1 "
                           "(the CI adversarial job does)")
@pytest.mark.parametrize("case", ADVERSARIAL_CASES,
                         ids=lambda case: case.name)
def test_terminates_under_default_budgets(case):
    """The out-of-the-box guarantee: *default* ``PEConfig`` budgets are
    finite, so the family terminates with a degraded-but-correct
    residual with no tuning at all."""
    program, result = _specialize(case, "online", None)
    _assert_degraded_but_correct(case, program, result)
    assert result.stats.budget_used["steps"] \
        > PEConfig().max_steps
