"""The structured failure taxonomy: every engine failure is a
:class:`~repro.engine.errors.ReproError`, classified by fault.

The robustness north-star: a caller that catches ``ReproError`` has
caught everything the engine can throw — no bare Python exception
escapes an engine entry point.
"""

from __future__ import annotations

import pytest

from repro.engine.errors import (
    BudgetExhausted, FacetError, ProgramError, ReproError,
    SpecializationError, classify, engine_guard)
from repro.lang.errors import LangError, PEError
from repro.lang.parser import parse_program
from repro.online.config import PEConfig
from repro.online.specializer import specialize_online
from repro.service.specs import parse_specs
from repro.service.worker import default_suite, execute_request
from repro.workloads import ADVERSARIAL_CASES, WORKLOADS


class TestHierarchy:
    def test_every_leaf_is_a_repro_error(self):
        for leaf in (ProgramError, SpecializationError, FacetError,
                     BudgetExhausted):
            assert issubclass(leaf, ReproError)

    def test_language_errors_are_program_errors(self):
        assert issubclass(LangError, ProgramError)

    def test_legacy_pe_error_sits_under_both(self):
        # Historically PEError covered both program-level fuel blowups
        # and specializer-internal failures.
        assert issubclass(PEError, ProgramError)
        assert issubclass(PEError, SpecializationError)


class TestClassify:
    @pytest.mark.parametrize("error,bucket", [
        (BudgetExhausted("spent", dimension="steps"), "budget"),
        (FacetError("bad product"), "facet"),
        (ProgramError("bad program"), "program"),
        (SpecializationError("engine bug"), "specialization"),
        (ValueError("anything else"), "internal"),
    ])
    def test_buckets(self, error, bucket):
        assert classify(error) == bucket

    def test_legacy_pe_error_counts_as_program_fault(self):
        assert classify(PEError("fuel spent")) == "program"


class TestEngineGuard:
    def test_wraps_bare_exceptions(self):
        with pytest.raises(SpecializationError) as info:
            with engine_guard("unit test"):
                raise KeyError("oops")
        assert "unit test" in str(info.value)
        assert isinstance(info.value.__cause__, KeyError)

    def test_repro_errors_pass_through_untouched(self):
        original = BudgetExhausted("spent", dimension="steps")
        with pytest.raises(BudgetExhausted) as info:
            with engine_guard("unit test"):
                raise original
        assert info.value is original


class TestNoBareExceptionEscapes:
    def _online(self, source, config=None):
        program = parse_program(source)
        suite = default_suite()
        return specialize_online(program, parse_specs(suite, ["dyn"]),
                                 suite, config)

    def test_invalid_program_is_a_repro_error(self):
        with pytest.raises(ReproError) as info:
            parse_program("(define (main d) (undefinedfn d))")
        assert classify(info.value) == "program"

    def test_failing_static_computation_is_residualized(self):
        """A failing static subcomputation is *deferred*, not raised:
        the engine residualizes the offending primitive so the fault
        surfaces (classified) at run time, on the path that hits it."""
        result = self._online("(define (main d) (+ d (div 1 0)))")
        assert result.stats.degradations == 0  # defensive, not budget

    def test_hard_fuel_backstop_is_a_budget_error(self):
        """``fuel`` stays a hard error behind the soft budgets; with
        the soft budgets off it is the last line of defense."""
        config = PEConfig(fuel=5_000, max_steps=None,
                          max_residual_nodes=None)
        with pytest.raises(BudgetExhausted) as info:
            self._online(ADVERSARIAL_CASES[0].source, config)
        assert info.value.dimension == "fuel"
        assert classify(info.value) == "budget"


class TestOneFuelMessage:
    def test_four_engines_report_fuel_alike(self):
        """One step meter raises the ``fuel`` backstop for every
        engine, so a request spends its fuel with the same answer
        whichever engine runs it."""
        answers = {}
        for engine in ("online", "simple", "offline", "genext"):
            outcome = execute_request({
                "source": WORKLOADS["power"].source,
                "specs": ["dyn", "10"], "engine": engine,
                "config": {"fuel": 20}})
            assert outcome["failed"] and outcome["category"] == "budget"
            answers[engine] = outcome["error"]
        assert set(answers.values()) == {
            "BudgetExhausted: partial evaluation exceeded 20 steps; "
            "a static loop in the subject program may diverge"}, answers
