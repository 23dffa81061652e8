"""Differential oracle for the fused generating extension.

``tests/genext/test_equivalence.py`` pins the byte-identity invariant
on the curated corpus; this harness states it over *random* programs:
for a generated program and a random static/dynamic split, the
emitted genext module and the offline specializer — both driven by
the same generalized-pattern analysis — must produce byte-identical
residuals, identical statistics and identical budget-degradation logs,
and the fused residual must agree with the source program when
*executed* through the shadow backend (interpreter vs compiled,
compared on every call).

The soft budgets are tight on purpose, so that on part of the examples
(about one in five; ``pytest --hypothesis-show-statistics`` prints the
share) they bite and both tiers degrade — the same widened or refused
calls at the same sites, at the same steps.  Tolerated aborts mirror
``test_engine_differential``: the ``fuel`` backstop and the offline
analyzer's refusal of an exploding division end a run without a
verdict, but only if both tiers refuse alike.

Example counts scale with ``REPRO_HYPOTHESIS_PROFILE`` via
``scaled_examples``.  The pinned seed-101 reproducer below is the case
this harness found while the generating extension ignored budgets.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tests.conftest import assert_values_close, scaled_examples

from repro.backend.verify import execute_program
from repro.engine.errors import BudgetExhausted
from repro.facets.abstract.vector import AbstractSuite
from repro.genext import emit_genext, load_genext
from repro.genext.emit import default_suite, generalized_pattern
from repro.lang.errors import PEError
from repro.lang.interp import run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.observability import BackendStats
from repro.offline.analysis import analyze
from repro.offline.specializer import OfflineSpecializer
from repro.online.config import PEConfig
from repro.service.specs import parse_specs
from repro.workloads import WORKLOADS
from repro.workloads.generator import GenConfig, generate_program

SEEDS = st.integers(min_value=0, max_value=10_000)
ARGS = st.integers(min_value=-6, max_value=8)
MASKS = st.integers(min_value=0, max_value=15)
GEN = GenConfig(functions=3, max_depth=3)
FUEL = 2_000_000

#: The wire config baked into the emitted module; the offline tier
#: gets the same fields as a PEConfig.
BASE_CONFIG = {"unfold_fuel": 12, "max_variants": 4, "fuel": FUEL}

#: Soft budgets tight enough to bite: the first mostly runs out of
#: residual nodes, the second of steps; the third refuses every unfold
#: past depth 2, logging the step count at each such call decision.
BUDGETS = st.sampled_from([
    {"max_steps": 128, "max_residual_nodes": 32},
    {"max_steps": 64, "max_residual_nodes": 96},
    {"max_unfold_depth": 2},
])


def _tolerated(error: Exception) -> bool:
    return "exceeded" in str(error) \
        or "generalized division" in str(error)


def _specs(program, pool, mask) -> tuple[list[str], list, list]:
    arity = program.main.arity
    args = pool[:arity]
    dynamic = [i for i in range(arity) if mask & (1 << i)]
    specs = ["dyn" if i in dynamic else str(value)
             for i, value in enumerate(args)]
    return specs, args, [args[i] for i in dynamic]


def _attempt(run):
    """``run()``'s result, or the engine error it raised."""
    try:
        return run()
    except (PEError, BudgetExhausted) as error:
        return error


def _both_tiers(source: str, specs: list[str], wire: dict):
    """Offline and fused results over one generalized analysis."""
    suite = default_suite()
    abstract = AbstractSuite(suite)
    pattern, _, _ = generalized_pattern(suite, abstract, specs)
    analysis = analyze(parse_program(source), list(pattern), abstract)
    offline = _attempt(lambda: OfflineSpecializer(
        analysis, suite, PEConfig(**wire)).specialize(
            parse_specs(suite, specs)))
    fused = _attempt(lambda: load_genext(emit_genext(
        source, specs, config=wire).python_source).specialize_specs(specs))
    return offline, fused


def _assert_same(offline, fused) -> None:
    assert pretty_program(fused.program) \
        == pretty_program(offline.program), \
        "fused residual diverges from offline"
    want = offline.stats.as_dict()
    got = fused.stats.as_dict()
    want.pop("phase_seconds")
    got.pop("phase_seconds")
    assert got == want, "fused statistics diverge from offline"
    assert fused.stats.degrade_events == offline.stats.degrade_events


class TestGenextDifferential:
    @given(SEEDS, st.lists(ARGS, min_size=4, max_size=4), MASKS,
           BUDGETS)
    @settings(max_examples=scaled_examples(40), deadline=None)
    def test_fused_matches_offline(self, seed, pool, mask, budgets):
        program = generate_program(seed, GEN)
        specs, args, dynamic_args = _specs(program, pool, mask)
        source = pretty_program(program)
        expected = run_program(program, *args, fuel=FUEL)
        wire = dict(BASE_CONFIG, **budgets)

        try:
            offline, fused = _both_tiers(source, specs, wire)
        except PEError as error:  # the analysis refused the division
            assert _tolerated(error), error
            return
        if isinstance(offline, Exception):
            assert _tolerated(offline), offline
            assert type(fused) is type(offline), fused
            return
        assert not isinstance(fused, Exception), fused
        _assert_same(offline, fused)
        event("budget bit" if offline.stats.degradations
              else "budget did not bite")

        # The fused residual, run through the shadow backend, agrees
        # with the source program on the dynamic arguments — and the
        # compiled/interpreted comparison inside `shadow` was clean.
        stats = BackendStats()
        try:
            got = execute_program(fused.program, dynamic_args,
                                  backend="shadow", fuel=FUEL,
                                  stats=stats)
        except (PEError, BudgetExhausted) as error:
            assert _tolerated(error), error
            return
        assert stats.mismatches == 0
        assert_values_close(expected, got,
                            context="fused residual vs the source")


#: Workload generator seed 101, pool ``[-1, 4, -4, 2]``, mask 1: with
#: no budgets in the generating extension, offline degraded at
#: ``max_residual_nodes`` while the extension ground out a 1.1M-line
#: residual.
REPRODUCER = (101, [-1, 4, -4, 2], 1)


def _reproducer(**budgets):
    program = generate_program(REPRODUCER[0], GEN)
    specs, args, dynamic_args = _specs(program, *REPRODUCER[1:])
    offline, fused = _both_tiers(pretty_program(program), specs,
                                 dict(BASE_CONFIG, **budgets))
    _assert_same(offline, fused)
    assert offline.stats.degradations > 0
    return program, args, dynamic_args, fused


def test_seed_101_degrades_identically():
    program, args, dynamic_args, fused = _reproducer(
        max_steps=20_000, max_residual_nodes=5_000)
    assert set(fused.stats.degradations_by_reason) \
        == {"residual_nodes"}
    assert execute_program(fused.program, dynamic_args) \
        == run_program(program, *args, fuel=FUEL)


@pytest.mark.skipif(os.environ.get("REPRO_ADVERSARIAL_FULL") != "1",
                    reason="slow (over a minute per tier); set "
                           "REPRO_ADVERSARIAL_FULL=1")
@pytest.mark.timeout(600)
def test_seed_101_degrades_identically_under_default_budgets():
    _reproducer()


@pytest.mark.skipif(os.environ.get("REPRO_ADVERSARIAL_FULL") != "1",
                    reason="slow (12-14 s per tier); set "
                           "REPRO_ADVERSARIAL_FULL=1")
@pytest.mark.timeout(600)
def test_mini_vm_exhausts_fuel_alike_under_default_budgets():
    """The Futamura target with its code vector dynamic: both tiers
    overshoot ``max_steps`` into the ``fuel`` backstop and raise the
    same error.  While the emitted functions recursed on the host
    stack, the generating extension died with SIGSEGV here."""
    offline, fused = _both_tiers(WORKLOADS["mini_vm"].source,
                                 ["dyn", "1.5"], {})
    assert isinstance(offline, BudgetExhausted), offline
    assert isinstance(fused, BudgetExhausted), fused
    assert fused.dimension == offline.dimension == "fuel"
    assert str(fused) == str(offline)
