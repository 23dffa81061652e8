"""The compiled-artifact path through the specialization service.

With ``backend="compiled"`` the worker lowers every successful
residual, whatever the engine, and the service stores the artifact
*with* the cached result, so repeat requests skip both specialization
and compilation.  These tests pin the artifact's presence, its
semantics (it must compute what the residual computes, and equal what
lowering the shipped text gives), the cache-reuse accounting, that
compilation is best-effort for every engine, and the wire-format
guarantee that ``backend="interp"`` output stays byte-identical to the
pre-backend format.
"""

from __future__ import annotations

import pytest

from repro.backend import compile_artifact, compile_program
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.service import SpecRequest, SpecializationService
from repro.workloads import WORKLOADS

from tests.golden.test_golden_residuals import CASES

ENGINES = ("online", "offline", "genext", "simple")

#: Every ``backend.compile`` hit fails.
COMPILE_ERRORS = {"seed": 1, "seams": {
    "backend.compile": {"kinds": ["error"], "every": 1}}}

#: Service rows beyond the golden corpus whose artifacts are checked.
EXTRA_ROWS = [("inner_product", ("size=5", "size=5"))]

GCD = "(define (gcd a b) (if (= b 0) a (gcd b (mod a b))))"
IPROD = """
(define (iprod A B n)
  (if (= n 0) 0.0
      (+ (* (vref A n) (vref B n)) (iprod A B (- n 1)))))
"""


def _request(source=GCD, specs=("dyn", "18"), **kwargs):
    return SpecRequest.create(source=source, specs=specs, **kwargs)


class TestArtifactAttachment:
    def test_compiled_backend_attaches_artifact(self):
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            (result,) = service.run_batch([_request()])
            assert not result.degraded
            assert result.compiled is not None
            assert result.compiled["fingerprint"]
            assert "def " in result.compiled["python"]
            assert service.backend_stats.compiles == 1
            assert service.backend_stats.compile_seconds >= 0.0

    def test_genext_compile_time_is_counted(self):
        """The worker times every engine's compile, genext's too."""
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            (result,) = service.run_batch([_request(engine="genext")])
            assert result.compiled is not None
            assert service.backend_stats.compiles == 1
            assert service.backend_stats.compile_seconds > 0.0

    def test_artifact_computes_what_the_residual_computes(self):
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            (result,) = service.run_batch([_request()])
        residual = parse_program(result.residual)
        unit = compile_artifact(dict(result.compiled))
        for a in (48, 1071, 252):
            assert unit.run(a) == Interpreter(residual).run(a)

    def test_interp_backend_attaches_nothing(self):
        with SpecializationService(workers=0) as service:
            (result,) = service.run_batch([_request()])
        assert result.compiled is None
        # Byte-identity of the wire format: no new key may appear.
        assert "compiled" not in result.to_dict()

    def test_compiled_result_dict_carries_the_artifact(self):
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            (result,) = service.run_batch([_request()])
        payload = result.to_dict()
        assert payload["compiled"]["goal"] == "gcd"


class TestArtifactIsTheShippedResidual:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_artifact_equals_lowering_the_reparsed_residual(self,
                                                            engine):
        """The worker lowers the residual AST the engine built, never
        the text it ships; over the golden corpus the two must give
        the same artifact, byte for byte."""
        requests = [SpecRequest.create(
            case.payload()["source"], case.specs, engine=engine,
            config=case.config, id=case.name) for case in CASES]
        requests += [SpecRequest.create(
            WORKLOADS[name].source, specs, engine=engine,
            id=f"{name}/{' '.join(specs)}") for name, specs in EXTRA_ROWS]
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            results = service.run_batch(requests)
        served = [result for result in results if not result.degraded]
        # Known degradations: the first-order analysis on the two
        # higher-order cases, simple on binary_search.
        assert len(served) >= len(CASES) - 2
        for result in served:
            want = compile_program(
                parse_program(result.residual)).artifact()
            assert result.compiled == want, result.id


class TestCompileIsBestEffort:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_failed_compile_ships_the_real_residual(self, engine):
        request = SpecRequest.create(
            WORKLOADS["power"].source, ("dyn", "5"), engine=engine)
        with SpecializationService(workers=0) as reference:
            (want,) = reference.run_batch([request])
        with SpecializationService(
                workers=0, backend="compiled",
                fault_plan=COMPILE_ERRORS) as service:
            (result,) = service.run_batch([request])
            assert not result.degraded, result.reason
            assert result.residual == want.residual
            assert result.compiled is None
            assert service.stats.errors == 0
            assert service.breakers["compile"].failures == 1
            assert service.backend_stats.compiles == 0


class TestArtifactCacheReuse:
    def test_cache_hit_reuses_the_artifact(self):
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            first = service.run_batch([_request(id="a")])[0]
            second = service.run_batch([_request(id="b")])[0]
            assert not first.cached and second.cached
            assert second.compiled == first.compiled
            # Compiled exactly once; the repeat was an artifact reuse.
            assert service.backend_stats.compiles == 1
            assert service.backend_stats.artifact_reuses >= 1

    def test_next_batch_skips_both_engine_and_compiler(self):
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            service.run_batch([_request(id="x"), _request(id="y")])
            compiles_before = service.backend_stats.compiles
            (again,) = service.run_batch([_request(id="z")])
            assert again.cached and again.compiled is not None
            assert service.backend_stats.compiles == compiles_before


class TestRobustness:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SpecializationService(backend="jit")

    def test_degraded_requests_carry_no_artifact(self):
        # An unspecializable blowup degrades to the fallback residual;
        # the artifact is best-effort and must not break the request.
        source = """
        (define (boom n) (if (= n 0) 1 (+ (boom (- n 1)) (boom (- n 1)))))
        """
        request = SpecRequest.create(
            source=source, specs=("dyn",),
            config={"max_steps": 50, "max_residual_nodes": 10,
                    "unfold_fuel": 2, "strict_budgets": True})
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            (result,) = service.run_batch([request])
        assert result.residual  # the fallback is still a program

    def test_vector_workload_artifact(self):
        request = SpecRequest.create(
            source=IPROD, specs=("dyn", "dyn", "3"))
        with SpecializationService(workers=0,
                                   backend="compiled") as service:
            (result,) = service.run_batch([request])
        assert result.compiled is not None
        from repro.lang.values import Vector
        unit = compile_artifact(dict(result.compiled))
        a, b = Vector((1.0, 2.0, 3.0)), Vector((4.0, 5.0, 6.0))
        residual = parse_program(result.residual)
        assert unit.run(a, b) == Interpreter(residual).run(a, b) == 32.0
