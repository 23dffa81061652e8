"""Service-layer fault tests: crashes, deadlines, deterministic
failures.

Faults are injected by a :class:`~repro.faults.FaultPlan` on the
``worker.execute`` seam, which the scheduler decides once per attempt;
a schedule's ``keys`` aim it at one request.  The contract under test:
the caller *never* sees an exception; every fault path ends in either
a successful retry or a ``degraded=True`` fallback, and
:class:`ServiceStats` accounts for what happened.
"""

from __future__ import annotations

import pytest

from repro.service import SpecRequest, SpecializationService
from repro.workloads import WORKLOADS

SRC = WORKLOADS["gcd"].source


#: The id the crash plans below aim at.
CRASHY = "crashy-t"


def crashy_request() -> SpecRequest:
    """The request :func:`crash_plan` crashes.

    Its division (49, 18) is deliberately unlike any healthy request
    in these tests: the plan targets the request id, which is not part
    of the fingerprint, so sharing a division with a healthy request
    would let the crashy one be (correctly!) served from the
    cross-request cache.
    """
    return SpecRequest.create(source=SRC, specs=["49", "18"], id=CRASHY)


def crash_plan(times: int | None = None) -> dict:
    """Kill the worker on the first ``times`` attempts of
    :data:`CRASHY` (every attempt when ``None``), then behave."""
    schedule: dict = {"kinds": ["crash"], "keys": [CRASHY]}
    if times is None:
        schedule["every"] = 1
    else:
        schedule["at"] = list(range(1, times + 1))
    return {"seed": 0, "seams": {"worker.execute": schedule}}


def fault_plan(kind: str, **schedule) -> dict:
    """Fire ``kind`` on every ``worker.execute`` hit (that the
    schedule's ``keys``, if given, admit)."""
    return {"seed": 0, "seams": {"worker.execute": {
        "kinds": [kind], "every": 1, **schedule}}}


@pytest.fixture
def recorded_sleep():
    """Replace real backoff sleeps with a recorder: fault tests assert
    the backoff *accounting*, not wall-clock."""
    slept: list[float] = []
    return slept, slept.append


class TestCrashRetry:
    def test_crash_once_then_retry_succeeds(self, recorded_sleep):
        """The pool restart after the crash does not reset the
        schedule's count: the retry is hit 2, which does not fire."""
        slept, sleep = recorded_sleep
        with SpecializationService(workers=1, max_attempts=3,
                                   backoff_base=0.01,
                                   fault_plan=crash_plan(times=1),
                                   sleep=sleep) as service:
            result = service.run_one(crashy_request())
        assert not result.degraded
        assert result.residual.strip() == "(define (gcd) 1)"
        assert result.attempts == 2
        assert service.stats.worker_crashes == 1
        assert service.stats.retries == 1
        assert service.stats.pool_restarts == 1
        assert service.stats.backoff_seconds == pytest.approx(sum(slept))
        assert service.stats.backoff_seconds > 0

    def test_backoff_grows_exponentially(self, recorded_sleep):
        slept, sleep = recorded_sleep
        with SpecializationService(workers=1, max_attempts=4,
                                   backoff_base=0.01,
                                   fault_plan=crash_plan(times=2),
                                   sleep=sleep) as service:
            result = service.run_one(crashy_request())
        assert not result.degraded
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]
        assert service.stats.retries == 2

    def test_persistent_crash_degrades_without_raising(
            self, recorded_sleep):
        _, sleep = recorded_sleep
        with SpecializationService(workers=1, max_attempts=3,
                                   backoff_base=0.01,
                                   fault_plan=crash_plan(),
                                   sleep=sleep) as service:
            result = service.run_one(crashy_request())
        assert result.degraded
        assert result.reason == "worker-crash"
        assert result.attempts == 3
        assert service.stats.worker_crashes == 3
        assert service.stats.retries == 2
        assert service.stats.degraded == 1
        # The fallback is still a runnable copy of the source program.
        assert "(define (gcd" in result.residual

    def test_inline_mode_has_the_same_crash_semantics(
            self, recorded_sleep):
        _, sleep = recorded_sleep
        with SpecializationService(workers=0, max_attempts=3,
                                   backoff_base=0.01,
                                   fault_plan=crash_plan(times=1),
                                   sleep=sleep) as service:
            result = service.run_one(crashy_request())
        assert not result.degraded
        assert result.attempts == 2
        assert service.stats.retries == 1

    def test_crash_does_not_sink_the_rest_of_the_batch(
            self, recorded_sleep):
        _, sleep = recorded_sleep
        healthy = [SpecRequest.create(source=SRC, specs=["48", str(k)],
                                      id=f"ok-{k}")
                   for k in (18, 30, 36)]
        batch = healthy[:1] + [crashy_request()] + healthy[1:]
        with SpecializationService(workers=2, max_attempts=2,
                                   backoff_base=0.01,
                                   fault_plan=crash_plan(),
                                   sleep=sleep) as service:
            results = service.run_batch(batch)
        by_id = {result.id: result for result in results}
        assert by_id[CRASHY].degraded
        for request in healthy:
            assert not by_id[request.id].degraded


class TestWaveMateIsolation:
    def test_wave_mates_keep_their_retry_budgets(self, recorded_sleep):
        """Regression: when one request keeps breaking the pool, its
        wave-mates must not burn their own retry budgets as collateral.

        Wave 1 breaks the pool, so every wave-mate may lose at most
        that one attempt to the wreckage; serial-after-break isolation
        then runs the culprit alone, and each healthy request must
        finish on its second attempt — never reach max_attempts, never
        degrade.
        """
        _, sleep = recorded_sleep
        healthy = [SpecRequest.create(source=SRC, specs=["48", str(k)],
                                      id=f"ok-{k}")
                   for k in (18, 30, 36)]
        batch = [crashy_request()] + healthy
        with SpecializationService(workers=2, max_attempts=3,
                                   backoff_base=0.01,
                                   fault_plan=crash_plan(),
                                   sleep=sleep) as service:
            results = service.run_batch(batch)
        by_id = {result.id: result for result in results}
        assert by_id[CRASHY].degraded
        assert by_id[CRASHY].attempts == 3
        for request in healthy:
            result = by_id[request.id]
            assert not result.degraded
            assert result.attempts <= 2, \
                f"{result.id} burned {result.attempts} attempts as " \
                f"collateral of the crashy wave-mate"
        # The healthy requests' collateral crashes cleared on their
        # successful completion: none of them is anywhere near the
        # poison-pill quarantine.
        for request in healthy:
            assert not service.quarantine.is_quarantined(
                request.fingerprint())


class TestDeadlines:
    def test_hang_past_deadline_degrades(self):
        request = SpecRequest.create(
            source=SRC, specs=["48", "18"], id="sleepy", deadline=0.2)
        with SpecializationService(
                workers=1,
                fault_plan=fault_plan("hang", hang_seconds=5.0)) \
                as service:
            result = service.run_one(request)
        assert result.degraded
        assert result.reason == "deadline"
        assert service.stats.timeouts == 1
        assert service.stats.degraded == 1
        assert service.stats.retries == 0   # timeouts are not retried
        assert service.stats.pool_restarts == 1

    def test_deadline_only_hits_the_slow_request(self):
        fast = SpecRequest.create(source=SRC, specs=["48", "18"],
                                  id="fast")
        slow = SpecRequest.create(
            source=SRC, specs=["48", "18"], id="slow", deadline=0.2)
        plan = fault_plan("hang", hang_seconds=5.0, keys=["slow"])
        with SpecializationService(workers=2,
                                   fault_plan=plan) as service:
            results = service.run_batch([fast, slow])
        by_id = {result.id: result for result in results}
        assert not by_id["fast"].degraded
        assert by_id["slow"].degraded
        assert by_id["slow"].reason == "deadline"

    def test_service_default_deadline_applies(self):
        request = SpecRequest.create(source=SRC, specs=["48", "18"])
        with SpecializationService(
                workers=1, default_deadline=0.2,
                fault_plan=fault_plan("hang", hang_seconds=5.0)) \
                as service:
            result = service.run_one(request)
        assert result.degraded
        assert result.reason == "deadline"


class TestDeterministicFailures:
    def test_injected_error_degrades_without_retry(self, recorded_sleep):
        slept, sleep = recorded_sleep
        request = SpecRequest.create(source=SRC, specs=["48", "18"])
        with SpecializationService(workers=1,
                                   fault_plan=fault_plan("error"),
                                   sleep=sleep) as service:
            result = service.run_one(request)
        assert result.degraded
        assert "injected fault at worker.execute" in result.reason
        assert service.stats.errors == 1
        assert service.stats.retries == 0
        assert slept == []

    def test_parse_error_degrades_to_raw_source(self):
        request = SpecRequest.create(source="(define (f x) (oops",
                                     specs=["dyn"])
        with SpecializationService(workers=0) as service:
            result = service.run_one(request)
        assert result.degraded
        assert "ParseError" in result.reason
        assert result.residual == "(define (f x) (oops"

    def test_degraded_results_never_enter_the_cache(self):
        request = crashy_request()
        with SpecializationService(workers=0, max_attempts=1,
                                   fault_plan=crash_plan(),
                                   sleep=lambda _s: None) as service:
            first = service.run_one(request)
            # The crash budget is unlimited, so a cached degradation
            # would be the only way the second call could degrade
            # without counting a new crash.
            second = service.run_one(request)
        assert first.degraded and second.degraded
        assert not second.cached
        assert service.stats.cache_hits == 0
