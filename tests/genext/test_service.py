"""Engine ``genext`` through the full service stack.

The scheduler treats ``genext`` like any other engine; the tiering
lives in the worker and reports back through ``outcome["tiers"]``,
which these tests pin end to end: counters land in ``ServiceStats``
(the ``--profile`` surface), the persistent store gains ``genext``
rows next to ``result`` rows, and the compiled backend rides the
fused path (the worker ships the artifact, the scheduler does not
re-compile).
"""

from __future__ import annotations

from repro.service import SpecRequest, SpecializationService, worker
from repro.store import ArtifactStore
from repro.workloads import WORKLOADS

SOURCE = WORKLOADS["power"].source


def _request(specs=("dyn", "10"), **kwargs):
    return SpecRequest.create(SOURCE, specs, engine="genext", **kwargs)


class TestEngine:
    def test_matches_offline_residual(self):
        service = SpecializationService(workers=0)
        genext, offline = service.run_batch([
            _request(),
            SpecRequest.create(SOURCE, ("dyn", "10"),
                               engine="offline")])
        assert not genext.degraded and not offline.degraded
        assert genext.engine == "genext"
        assert genext.residual == offline.residual
        assert genext.goal_params == offline.goal_params

    def test_tier_counters_reach_profile_surface(self):
        service = SpecializationService(workers=0)
        specs = [("dyn", str(n)) for n in (5, 7, 9, 11)]
        results = service.run_batch([_request(s) for s in specs])
        assert all(not r.degraded for r in results)
        snapshot = service.stats.as_dict()
        # One emission covers the whole pattern class; the other
        # three requests hit the in-memory module cache.
        assert snapshot["genext"]["emits"] == 1
        assert snapshot["genext"]["hits"] == 3
        assert snapshot["genext"]["store_writes"] == 0  # no store

    def test_module_cache_survives_service_restart(self):
        SpecializationService(workers=0).run_one(_request())
        fresh = SpecializationService(workers=0)
        fresh.run_one(_request(("dyn", "23")))
        assert fresh.stats.genext_hits == 1
        assert fresh.stats.genext_emits == 0

    def test_bad_program_degrades_not_raises(self):
        service = SpecializationService(workers=0)
        result = service.run_one(SpecRequest.create(
            "(define (f x) (undefined-op x))", ("dyn",),
            engine="genext"))
        assert result.degraded
        assert service.stats.errors == 1


class TestStoreIntegration:
    def test_store_gains_genext_rows(self, tmp_path):
        path = tmp_path / "s.db"
        service = SpecializationService(workers=0,
                                        store_path=path)
        result = service.run_one(_request())
        assert not result.degraded
        assert service.stats.genext_store_writes == 1
        service.close()
        with ArtifactStore(path) as store:
            kinds = store.kinds()
        # One genext bundle plus the request's own result row.
        assert kinds["genext"] == 1
        assert kinds["result"] == 1

    def test_cold_worker_loads_from_store(self, tmp_path,
                                          clean_worker_tiers):
        path = tmp_path / "s.db"
        warm = SpecializationService(workers=0, store_path=path)
        warm.run_one(_request())
        warm.close()

        from tests.genext.conftest import _reset_worker_tiers
        _reset_worker_tiers()

        cold = SpecializationService(workers=0, store_path=path)
        # A different spec vector, same pattern class: the residual
        # cache misses but the genext store row answers.
        result = cold.run_one(_request(("dyn", "17")))
        assert not result.degraded
        assert cold.stats.genext_store_hits == 1
        assert cold.stats.genext_emits == 0
        cold.close()


class TestCompiledBackend:
    def test_worker_ships_the_compiled_artifact(self):
        service = SpecializationService(workers=0,
                                        backend="compiled")
        result = service.run_one(_request())
        assert not result.degraded
        assert result.compiled is not None
        assert set(result.compiled) >= {"entries", "fingerprint",
                                        "goal", "python"}
        # The artifact came from the worker's fused path; the
        # scheduler counted it without re-lowering the residual text.
        assert service.backend_stats.compiles == 1

    def test_interp_backend_ships_no_artifact(self):
        service = SpecializationService(workers=0)
        result = service.run_one(_request())
        assert result.compiled is None


class TestAnalysisMemo:
    def test_offline_engine_reuses_analysis(self):
        service = SpecializationService(workers=0)
        # The same request twice, so the second reuses the worker's
        # cached analysis of its division.
        requests = [SpecRequest.create(SOURCE, ("dyn", "10"),
                                       engine="offline", id=str(i))
                    for i in range(2)]
        results = service.run_batch(requests)
        assert all(not r.degraded for r in results)
        assert service.stats.analysis_memo_misses == 1
        assert service.stats.analysis_memo_hits == 1

    def test_one_analysis_per_division(self):
        def memo_counts(*spec_vectors):
            worker._analysis_memo.clear()
            service = SpecializationService(workers=0)
            results = service.run_batch([
                SpecRequest.create(SOURCE, specs, engine="offline")
                for specs in spec_vectors])
            assert all(not r.degraded for r in results)
            return (service.stats.analysis_memo_misses,
                    service.stats.analysis_memo_hits)

        # Literals enter the analysis as Static of their sort, so two
        # exponents share one analysis (the division genext uses).
        assert memo_counts(("dyn", "5"), ("dyn", "7")) == (1, 1)
        # Facet specs enter as their abstract image: distinct
        # intervals are distinct divisions, as are static and dynamic.
        assert memo_counts(("dyn", "interval=1:9"),
                           ("dyn", "interval=2:8")) == (2, 0)
        assert memo_counts(("dyn", "3"), ("dyn", "dyn")) == (2, 0)
